package lib

import "fmt"

// UsedByApp is referenced from cmd/app, a non-test file of another package.
func UsedByApp() int { return helper() }

// helper is referenced from UsedByApp, a non-test declaration.
func helper() int { return 1 }

// UsedByTool is referenced only from the nested module tool/.
func UsedByTool() int { return 2 }

func UsedOnlyInTests() int { return 3 } // want `UsedOnlyInTests is referenced only by tests`

func unreferenced() {} // want `unreferenced is referenced only by tests`

func countdown(n int) int { // want `countdown is referenced only by tests`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

var unusedVar = 4 // want `unusedVar is referenced only by tests`

// UsedConst is referenced from cmd/app.
const UsedConst = 5

// Shape is what cmd/app calls Area through.
type Shape interface {
	Area() float64
}

// Square is built by cmd/app.
type Square struct{ Side float64 }

// Area is reached only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want `Square.Perimeter is referenced only by tests`

// Color is printed by cmd/app.
type Color int

// String is reached only through fmt.Stringer.
func (c Color) String() string { return fmt.Sprintf("color-%d", int(c)) }

type selfish struct{} // want `selfish is referenced only by tests`

func (selfish) clone() selfish { return selfish{} } // want `selfish.clone is referenced only by tests`

// Harness is driven only by tests, on purpose.
//
//uavlint:allow testonly -- the fixture's lib_test.go drives it
func Harness() int { return 6 }
