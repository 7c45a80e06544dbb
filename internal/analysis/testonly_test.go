package analysis_test

import (
	"path/filepath"
	"testing"

	"github.com/uav-coverage/uavnet/internal/analysis"
	"github.com/uav-coverage/uavnet/internal/analysis/analysistest"
)

// TestTestOnly runs testonly over a fixture module: a declaration used only
// from a _test.go file, one used by nothing and one used only by itself are
// reported; one used from another package's non-test file, from a module
// nested in the fixture, or only through an interface (String included) is
// not; an allow with a reason suppresses; a package outside internal/ is out
// of scope.
func TestTestOnly(t *testing.T) {
	t.Parallel()
	analysistest.RunModule(t, filepath.Join(analysistest.TestData(t), "src", "testonly"), analysis.TestOnly)
}
