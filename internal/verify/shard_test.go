package verify

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/uav-coverage/uavnet/internal/core"
)

// roundtripCheckpoint serializes and reparses a checkpoint the way the CLI
// does, so the corpus exercises the JSON form of every partial.
func roundtripCheckpoint(t *testing.T, seed int64, cp *core.Checkpoint) *core.Checkpoint {
	t.Helper()
	data, err := cp.Marshal()
	if err != nil {
		t.Fatalf("seed %d: marshal checkpoint: %v", seed, err)
	}
	out, err := core.UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatalf("seed %d: unmarshal checkpoint: %v", seed, err)
	}
	return out
}

// TestShardMergeByteIdentical is the corpus-level contract behind sharding:
// for every corpus scenario, in both exhaustive and sampled modes, splitting
// the enumeration into shards — interrupting some of them mid-range and
// resuming them to completion — and merging the partial checkpoints must
// produce a deployment that serializes byte-for-byte identically to the
// uninterrupted single-process run.
func TestShardMergeByteIdentical(t *testing.T) {
	const shards = 3
	modes := []struct {
		name string
		opts func(core.Options) core.Options
	}{
		{"exhaustive", func(o core.Options) core.Options { return o }},
		{"sampled", func(o core.Options) core.Options { o.MaxSubsets = 40; o.Seed = 7; return o }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(0); seed < resumeSeeds; seed++ {
				r := rand.New(rand.NewSource(seed))
				sc, err := RandomScenario(r)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				in, err := core.NewInstance(sc)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				s := 2
				if s > sc.K() {
					s = sc.K()
				}
				base := mode.opts(core.Options{S: s, Workers: 2})

				full, err := core.Approx(context.Background(), in, base)
				if err != nil {
					t.Fatalf("seed %d: uninterrupted: %v", seed, err)
				}
				total := full.SubsetsEvaluated + full.SubsetsPruned

				cps := make([]*core.Checkpoint, shards)
				for i := 0; i < shards; i++ {
					spec := core.ShardSpec{Index: i, Count: shards}
					sharded := base
					sharded.Shard = spec

					// Interrupt alternating shards at their midpoint, then
					// resume them — partially-complete shards brought back to
					// completion must merge identically to straight-through
					// ones.
					rng := spec.Range(total)
					mid := rng.Start + rng.Len()/2
					if (seed+int64(i))%2 == 0 && mid > rng.Start && mid < rng.End {
						cut := sharded
						cut.StopAfter = mid
						part, err := core.Approx(context.Background(), in, cut)
						if err != nil {
							t.Fatalf("seed %d shard %d: cut: %v", seed, i, err)
						}
						if part.Status != core.StatusStopped || part.Checkpoint == nil {
							t.Fatalf("seed %d shard %d: cut status %q", seed, i, part.Status)
						}
						sharded.Resume = roundtripCheckpoint(t, seed, part.Checkpoint)
					}

					dep, err := core.Approx(context.Background(), in, sharded)
					if err != nil {
						t.Fatalf("seed %d shard %d: %v", seed, i, err)
					}
					if dep.Status != core.StatusPartial || dep.Checkpoint == nil {
						t.Fatalf("seed %d shard %d: status %q, want %q with checkpoint",
							seed, i, dep.Status, core.StatusPartial)
					}
					if !dep.Checkpoint.Complete() {
						t.Fatalf("seed %d shard %d: checkpoint not complete", seed, i)
					}
					cps[i] = roundtripCheckpoint(t, seed, dep.Checkpoint)
				}

				merged, err := core.MergeCheckpoints(in, base, cps)
				if err != nil {
					t.Fatalf("seed %d: merge: %v", seed, err)
				}
				if merged.Status != core.StatusComplete {
					t.Fatalf("seed %d: merged status %q, want %q", seed, merged.Status, core.StatusComplete)
				}
				a, errA := json.Marshal(full)
				b, errB := json.Marshal(merged)
				if errA != nil || errB != nil {
					t.Fatalf("seed %d: marshal deployments: %v %v", seed, errA, errB)
				}
				if string(a) != string(b) {
					t.Errorf("seed %d: merged deployment differs from uninterrupted run\nfull:   %s\nmerged: %s",
						seed, a, b)
				}
			}
		})
	}
}

// TestShardMergeOfIncompleteResumesByteIdentical covers the other exit of the
// merge: when a shard is still mid-range, the merge yields an unsharded
// resumable checkpoint whose plain resume finishes byte-identical to the
// uninterrupted run.
func TestShardMergeOfIncompleteResumesByteIdentical(t *testing.T) {
	const shards = 3
	for seed := int64(0); seed < resumeSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc, err := RandomScenario(r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in, err := core.NewInstance(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := 2
		if s > sc.K() {
			s = sc.K()
		}
		base := core.Options{S: s, Workers: 2}

		full, err := core.Approx(context.Background(), in, base)
		if err != nil {
			t.Fatalf("seed %d: uninterrupted: %v", seed, err)
		}
		total := full.SubsetsEvaluated + full.SubsetsPruned

		cut := false
		cps := make([]*core.Checkpoint, shards)
		for i := 0; i < shards; i++ {
			spec := core.ShardSpec{Index: i, Count: shards}
			sharded := base
			sharded.Shard = spec
			rng := spec.Range(total)
			if mid := rng.Start + rng.Len()/2; !cut && mid > rng.Start && mid < rng.End {
				sharded.StopAfter = mid
				cut = true
			}
			dep, err := core.Approx(context.Background(), in, sharded)
			if err != nil {
				t.Fatalf("seed %d shard %d: %v", seed, i, err)
			}
			if dep.Checkpoint == nil {
				t.Fatalf("seed %d shard %d: no checkpoint", seed, i)
			}
			cps[i] = roundtripCheckpoint(t, seed, dep.Checkpoint)
		}
		if !cut {
			continue // every shard range too small to interrupt
		}

		merged, err := core.MergeCheckpoints(in, base, cps)
		if err != nil {
			t.Fatalf("seed %d: merge: %v", seed, err)
		}
		if merged.Status != core.StatusStopped || merged.Checkpoint == nil {
			t.Fatalf("seed %d: merged status %q, want %q with checkpoint",
				seed, merged.Status, core.StatusStopped)
		}

		resumeOpts := base
		resumeOpts.Resume = roundtripCheckpoint(t, seed, merged.Checkpoint)
		dep, err := core.Approx(context.Background(), in, resumeOpts)
		if err != nil {
			t.Fatalf("seed %d: resume merged: %v", seed, err)
		}
		a, errA := json.Marshal(full)
		b, errB := json.Marshal(dep)
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: marshal deployments: %v %v", seed, errA, errB)
		}
		if string(a) != string(b) {
			t.Errorf("seed %d: resumed merge differs from uninterrupted run\nfull:    %s\nresumed: %s",
				seed, a, b)
		}
	}
}
