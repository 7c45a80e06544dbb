package uavnet_test

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// The files under testdata/checkpoints were written by the release that
// still had a separate portfolio checkpoint type: scenario.json, an
// enumeration checkpoint stopped at subset 3000 of C(36,3) (enumOpts plus
// StopAfter), and a portfolio checkpoint cancelled mid-race (portOpts).
// Both must keep loading through the one LoadCheckpoint and resume to the
// uninterrupted run's bytes, with no migration.
var (
	enumOpts = uavnet.Options{S: 3, Workers: 2}
	portOpts = uavnet.Options{S: 3, Seed: 3, Solver: "portfolio", SolverBudget: 3000}
)

func compatInstance(t *testing.T) *uavnet.Instance {
	t.Helper()
	sc, err := uavnet.LoadScenario("testdata/checkpoints/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// solveBytes runs one solve to completion and marshals the deployment.
func solveBytes(t *testing.T, in *uavnet.Instance, opts uavnet.Options) []byte {
	t.Helper()
	dep, err := uavnet.DeployInstanceContext(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Status != uavnet.StatusComplete {
		t.Fatalf("run ended %q, want complete", dep.Status)
	}
	data, err := uavnet.MarshalDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestOlderCheckpointsResumeByteIdentical(t *testing.T) {
	t.Parallel()
	in := compatInstance(t)
	for _, tc := range []struct {
		file string
		kind string
		opts uavnet.Options
	}{
		{"enum.ckpt", "approAlg", enumOpts},
		{"portfolio.ckpt", "portfolio", portOpts},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			path := "testdata/checkpoints/" + tc.file
			cp, err := uavnet.LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Algorithm != tc.kind {
				t.Fatalf("loaded a %q checkpoint, want %q", cp.Algorithm, tc.kind)
			}
			if done, total := cp.Frontier(); done <= 0 || done >= total {
				t.Fatalf("frontier %d / %d, want a mid-run checkpoint", done, total)
			}
			if tc.kind == "approAlg" {
				// The enumeration format is unchanged: re-saving reproduces
				// the older file byte for byte.
				data, err := cp.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				old, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(append(data, '\n'), old) {
					t.Errorf("re-marshalled enumeration checkpoint differs from the file:\n%s\nvs\n%s", data, old)
				}
			}
			resumed := tc.opts
			resumed.Resume = cp
			// A resumed run stopped before its first step hands back the
			// state it restored, unchanged.
			stopped, cancel := context.WithCancel(context.Background())
			cancel()
			dep, err := uavnet.DeployInstanceContext(stopped, in, resumed)
			if dep == nil || dep.Checkpoint == nil {
				t.Fatalf("resumed run stopped at once returned no checkpoint (err %v)", err)
			}
			before, _ := cp.Marshal()
			after, _ := dep.Checkpoint.Marshal()
			if !bytes.Equal(before, after) {
				t.Errorf("restored state round-trips differently:\n%s\nvs\n%s", after, before)
			}
			if got, want := solveBytes(t, in, resumed), solveBytes(t, in, tc.opts); !bytes.Equal(got, want) {
				t.Errorf("resumed deployment differs from the uninterrupted run")
			}
		})
	}
}

// TestCheckpointKindMismatch: a checkpoint resumes only under the solver
// kind that wrote it, and the refusal names the checkpoint's algorithm.
func TestCheckpointKindMismatch(t *testing.T) {
	t.Parallel()
	in := compatInstance(t)
	for _, tc := range []struct {
		file string
		kind string
		opts uavnet.Options
	}{
		{"enum.ckpt", "approAlg", portOpts},
		{"portfolio.ckpt", "portfolio", enumOpts},
	} {
		cp, err := uavnet.LoadCheckpoint("testdata/checkpoints/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		opts := tc.opts
		opts.Resume = cp
		_, err = uavnet.DeployInstanceContext(context.Background(), in, opts)
		if err == nil || !strings.Contains(err.Error(), `"`+tc.kind+`"`) {
			t.Errorf("%s checkpoint under solver %q: got %v, want a refusal naming %q", tc.kind, opts.Solver, err, tc.kind)
		}
	}
}
