package analysis

import (
	"go/ast"
	"strings"
)

// CtxThread rejects context.Background() and context.TODO() inside library
// code. PR 4 threaded context.Context from the facade down to the solver's
// worker loop precisely so callers control cancellation; a Background() in a
// library path silently detaches everything below it from that chain, and
// the resulting "cancel doesn't cancel" bug only shows up under timeout
// tests. Fresh root contexts belong in cmd/ binaries and tests. The two
// sanctioned library shapes — compatibility shims like DeployInstance →
// DeployInstanceContext, and nil-ctx normalization at an API boundary — carry
// //uavlint:allow ctxthread with a reason.
var CtxThread = &Analyzer{
	Name: "ctxthread",
	Doc:  "flag context.Background()/TODO() in library code; roots belong in cmd/ and tests",
	Run:  runCtxThread,
}

func runCtxThread(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	if !strings.HasPrefix(pass.Pkg.Path(), modulePath) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, name, ok := packageFunc(pass.Info, call); ok && pkg == "context" &&
				(name == "Background" || name == "TODO") {
				pass.Reportf(call.Pos(), "context.%s() in library code detaches callees from the caller's cancellation chain; accept a ctx parameter (cf. DeployContext), or annotate a sanctioned shim with //uavlint:allow ctxthread", name)
			}
			return true
		})
	}
	return nil
}
