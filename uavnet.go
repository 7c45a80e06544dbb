package uavnet

import (
	"context"
	"fmt"

	"github.com/uav-coverage/uavnet/internal/baseline"
	"github.com/uav-coverage/uavnet/internal/bruteforce"
	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/portfolio"
	"github.com/uav-coverage/uavnet/internal/verify"
)

// Core model types, re-exported from the implementation packages. See the
// originals for field documentation.
type (
	// Scenario is one problem instance: area, users, fleet, radio.
	Scenario = core.Scenario
	// User is a ground user with a position and minimum data rate.
	User = core.User
	// UAV is one heterogeneous UAV with capacity and radio front-end.
	UAV = core.UAV
	// Instance is a Scenario with precomputed structures; reuse it across
	// algorithm runs on the same scenario.
	Instance = core.Instance
	// Deployment is an algorithm's output placement and user assignment.
	Deployment = core.Deployment
	// Options tune the approximation algorithm.
	Options = core.Options
	// Budget is Algorithm 1's output (L_max and segment sizes).
	Budget = core.Budget
	// Grid is the disaster area and its hovering-plane discretization.
	Grid = geom.Grid
	// Point is a planar position in meters.
	Point = geom.Point2
	// Transmitter is a base station radio front-end.
	Transmitter = channel.Transmitter
	// ChannelParams are the shared radio parameters.
	ChannelParams = channel.Params
	// Environment selects the air-to-ground propagation constants.
	Environment = channel.Environment
)

// Propagation environments from Al-Hourani et al.
var (
	Suburban   = channel.Suburban
	Urban      = channel.Urban
	DenseUrban = channel.DenseUrban
	Highrise   = channel.Highrise
)

// DefaultChannel returns the paper's radio parameters: 2 GHz carrier, urban
// environment, one 180 kHz OFDMA resource block per user.
func DefaultChannel() ChannelParams { return channel.DefaultParams() }

// NewInstance validates a scenario and precomputes the structures shared by
// every algorithm (location graph, hop distances, eligibility lists).
func NewInstance(sc *Scenario) (*Instance, error) { return core.NewInstance(sc) }

// Run-control types, re-exported from internal/core. A stopped run — of the
// enumeration or of the portfolio — returns its best-so-far deployment
// tagged StatusStopped together with ctx.Err(); the deployment's Checkpoint
// field (saved by SaveCheckpoint, re-loadable via LoadCheckpoint) resumes it
// through Options.Resume.
type (
	// RunStatus tags how an approAlg run ended (StatusComplete,
	// StatusStopped, or StatusPartial for sharded runs).
	RunStatus = core.RunStatus
	// RunProgress is the periodic snapshot delivered to Options.Progress.
	RunProgress = core.Progress
	// Checkpoint freezes a stopped run for later resumption; its Algorithm
	// field tags the kind ("approAlg" or "portfolio").
	Checkpoint = core.Checkpoint
	// ShardSpec names one shard of a sharded enumeration (Options.Shard):
	// shard Index of Count, covering a deterministic contiguous sub-range
	// of the index space.
	ShardSpec = core.ShardSpec
	// ShardRange tags a partial checkpoint with the shard that produced it.
	ShardRange = core.ShardRange
	// Span is a half-open range of enumeration indices, used by merged
	// checkpoints to list still-unprocessed sub-ranges.
	Span = core.Span
)

// Run statuses.
const (
	StatusComplete = core.StatusComplete
	StatusStopped  = core.StatusStopped
	StatusPartial  = core.StatusPartial
)

// MergeCheckpoints combines the partial checkpoints of a sharded run (same
// scenario, same options; ranges must tile the enumeration exactly) into the
// final deployment, byte-identical to an unsharded run's. When some shards
// are incomplete it returns a StatusStopped deployment whose Checkpoint is
// the merged resumable state instead (see core.MergeCheckpoints).
func MergeCheckpoints(in *Instance, opts Options, cps []*Checkpoint) (*Deployment, error) {
	return core.MergeCheckpoints(in, opts, cps)
}

// DeployContext runs the paper's approximation algorithm (Algorithm 2,
// approAlg) — or the metaheuristic named by opts.Solver — and returns the
// best deployment found. The scenario is validated and precomputed
// internally; to amortize precomputation across runs, use NewInstance and
// DeployInstanceContext. On cancellation or deadline the run stops promptly
// and returns the best-so-far deployment (Status StatusStopped, resumable
// via its Checkpoint) together with ctx.Err().
func DeployContext(ctx context.Context, sc *Scenario, opts Options) (*Deployment, error) {
	in, err := core.NewInstance(sc)
	if err != nil {
		return nil, err
	}
	return deploySolver(ctx, in, opts)
}

// DeployInstance is DeployInstanceContext without a context. It stays for
// the benchmark module under bench/, which pins it; new code should use
// DeployInstanceContext.
//
//uavlint:allow ctxthread -- compatibility shim: ctx-less callers get a fresh root, DeployInstanceContext is the threaded path
func DeployInstance(in *Instance, opts Options) (*Deployment, error) {
	return deploySolver(context.Background(), in, opts)
}

// DeployInstanceContext is DeployContext on a precomputed instance.
func DeployInstanceContext(ctx context.Context, in *Instance, opts Options) (*Deployment, error) {
	return deploySolver(ctx, in, opts)
}

// deploySolver dispatches on Options.Solver: the enumeration (Algorithm 2)
// by default, or the metaheuristic portfolio for "anneal", "tabu", "grasp",
// "genetic", and "portfolio" — the budgeted large-m path (see the package
// docs of internal/portfolio and the README's "Large m" section). Both
// honor the same stopped-run contract and resume from Options.Resume.
func deploySolver(ctx context.Context, in *Instance, opts Options) (*Deployment, error) {
	if opts.SolverIsEnum() {
		return core.Approx(ctx, in, opts)
	}
	dep, err := portfolio.Race(ctx, in, opts)
	if dep != nil {
		if rep := verify.CheckDeployment(in, dep); !rep.OK() {
			// Unreachable by construction — the portfolio finalizes through
			// the exact Algorithm 2 pipeline — but the feasibility guarantee
			// is part of the API, so it is enforced, not assumed.
			return nil, fmt.Errorf("uavnet: portfolio produced an infeasible deployment: %v", rep)
		}
	}
	return dep, err
}

// SolverNames lists every Options.Solver value: "enum" (the paper's
// enumeration, also selected by the empty string), the four portfolio
// members, and "portfolio" to race all four.
func SolverNames() []string {
	return append([]string{"enum"}, append(portfolio.Members(), "portfolio")...)
}

// AlgorithmNames lists every algorithm usable with DeployWithContext, the
// paper's approAlg first.
func AlgorithmNames() []string {
	return append([]string{"approAlg"}, baseline.Names()...)
}

// DeployWithContext runs the named algorithm — "approAlg" or one of the
// baselines "MCS", "MotionCtrl", "GreedyAssign", "maxThroughput" — on the
// instance. The opts apply to approAlg only, which dispatches on
// opts.Solver like DeployInstanceContext. Only approAlg supports mid-run
// cancellation and checkpointing; the baselines are single-pass and merely
// check the context before starting.
func DeployWithContext(ctx context.Context, name string, in *Instance, opts Options) (*Deployment, error) {
	if name == "approAlg" {
		return deploySolver(ctx, in, opts)
	}
	run, err := baseline.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("uavnet: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return run(in)
}

// DeployOptimal computes the exact optimum by exhaustive search. It is only
// usable on tiny instances (at most 16 candidate cells and 6 UAVs) and
// exists for validation and teaching.
func DeployOptimal(in *Instance) (*Deployment, error) {
	return bruteforce.Optimal(in)
}

// EvaluatePlacement scores a hand-chosen placement: locationOf[k] is the
// grid cell of UAV k, or -1 to keep UAV k grounded. The returned deployment
// carries the optimal user assignment for that placement. Connectivity of
// the placement is reported by Connected.
func EvaluatePlacement(in *Instance, locationOf []int) (*Deployment, error) {
	return core.EvaluateFixed(in, locationOf)
}

// Connected reports whether a deployment's UAV network is connected under
// the instance's UAV-to-UAV range.
func Connected(in *Instance, dep *Deployment) bool {
	return in.LocGraph.Connected(dep.DeployedLocations())
}

// Verification types, re-exported from internal/verify.
type (
	// VerifyReport lists every paper invariant a deployment violates; an
	// empty report (OK() == true) certifies feasibility.
	VerifyReport = verify.Report
	// VerifyViolation is one broken invariant with its constraint name.
	VerifyViolation = verify.Violation
	// VerifyConstraint names one checked invariant (capacity, min-rate,
	// connectivity, placement-M1, hop-budget-M2, node-budget, bookkeeping,
	// shape).
	VerifyConstraint = verify.Constraint
)

// Verify re-derives every constraint of the maximum connected coverage
// problem for a deployment — per-UAV capacity C_k, per-user minimum rate
// through the channel model, UAV-network connectivity within R_uav, the
// matroid structure of Algorithm 2, and internal bookkeeping — and returns
// the violations found. Use it as a feasibility oracle after any algorithm,
// refinement, or hand edit; an empty report certifies the deployment.
func Verify(in *Instance, dep *Deployment) VerifyReport {
	return verify.CheckDeployment(in, dep)
}

// Gateway is a ground anchor (emergency vehicle, satellite terminal) the
// network must reach to touch the Internet (Fig. 1 of the paper).
type Gateway = core.Gateway

// ConnectToGateway extends a deployment with a relay chain of grounded UAVs
// so that at least one UAV is within UAV range of the gateway. Deployments
// that already touch a gateway cell are returned unchanged.
func ConnectToGateway(in *Instance, dep *Deployment, gw Gateway) (*Deployment, error) {
	return core.ConnectToGateway(in, dep, gw)
}

// GatewayReachable reports whether a deployed UAV can relay to the gateway.
func GatewayReachable(in *Instance, dep *Deployment, gw Gateway) bool {
	return core.GatewayReachable(in, dep, gw)
}

// DeployToGatewayContext runs approAlg constrained so that the deployed
// network includes a cell within relay range of the gateway: the gateway's
// cells are injected as required anchors, so reachability is guaranteed by
// construction rather than patched afterwards. It fails if no candidate
// cell lies within UAV range of the gateway. See DeployContext for the
// stopped-run contract.
func DeployToGatewayContext(ctx context.Context, in *Instance, gw Gateway, opts Options) (*Deployment, error) {
	if !opts.SolverIsEnum() {
		// The gateway guarantee rides on the enumeration's required-cell
		// filter; the portfolio's neighborhood has no such constraint yet.
		return nil, fmt.Errorf("uavnet: gateway-constrained deployment needs the enumeration (got solver %q)", opts.Solver)
	}
	cells := in.GatewayCells(gw)
	if len(cells) == 0 {
		return nil, fmt.Errorf("uavnet: no candidate cell within %g m of the gateway",
			in.Scenario.UAVRange)
	}
	opts.RequiredCells = cells
	return core.Approx(ctx, in, opts)
}

// RefineAssignment recomputes a deployment's user assignment so that it
// serves the same number of users but minimizes the total UAV-to-user
// pathloss (min-cost max-flow). It returns the refined deployment and the
// total pathloss in milli-dB — lower means higher average SNR and realized
// data rates for the same coverage.
func RefineAssignment(in *Instance, dep *Deployment) (*Deployment, int64, error) {
	return core.RefineAssignment(in, dep)
}

// TotalPathlossMilliDB sums the mean pathloss over a deployment's assigned
// links, the quantity RefineAssignment minimizes.
func TotalPathlossMilliDB(in *Instance, dep *Deployment) (int64, error) {
	return core.TotalPathlossMilliDB(in, dep)
}

// InterferenceReport audits a deployment under worst-case co-channel
// interference (every UAV on the same resource block).
type InterferenceReport = core.InterferenceReport

// AnalyzeInterference quantifies how optimistic the paper's
// interference-free SNR model is for a concrete deployment: it recomputes
// every served link's SINR with all other deployed UAVs as co-channel
// interferers and reports the rate loss and the users whose minimum rate
// would no longer hold without resource-block coordination.
func AnalyzeInterference(in *Instance, dep *Deployment) (InterferenceReport, error) {
	return core.AnalyzeInterference(in, dep)
}

// PlanBudget runs Algorithm 1: the largest greedy budget L_max and segment
// sizes whose worst-case relay bill stays within K UAVs, for anchor count s.
func PlanBudget(k, s int) (Budget, error) { return core.PlanBudget(k, s) }

// ApproxRatio returns the Theorem 1 approximation ratio
// 1/(3*ceil((2K-2)/L1)) = O(sqrt(s/K)) for K UAVs and anchor count s.
func ApproxRatio(k, s int) float64 { return core.ApproxRatio(k, s) }
