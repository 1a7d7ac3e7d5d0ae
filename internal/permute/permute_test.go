package permute

import (
	"testing"
	"testing/quick"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/workload"
)

func TestSequential(t *testing.T) {
	vals := []int64{10, 20, 30}
	dests := []int64{2, 0, 1}
	got := Sequential(vals, dests)
	want := []int64{20, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCGMPermuteMatchesSequential(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 8, 100, 777} {
			vals := workload.Int64s(int64(n), n)
			dests := workload.Permutation(int64(v), n)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item{Dest: dests[i], Val: vals[i]}
			}
			res, err := cgm.Run[Item](New(n), v, cgm.Scatter(items, v))
			if err != nil {
				t.Fatalf("v=%d n=%d: %v", v, n, err)
			}
			want := Sequential(vals, dests)
			out := res.Output()
			for i := range want {
				if out[i].Val != want[i] {
					t.Fatalf("v=%d n=%d: out[%d] = %d, want %d", v, n, i, out[i].Val, want[i])
				}
			}
			if res.Stats.Rounds != 2 {
				t.Errorf("v=%d n=%d: rounds = %d, want 2 (λ = O(1))", v, n, res.Stats.Rounds)
			}
		}
	}
}

func TestEMPermute(t *testing.T) {
	const n = 1000
	vals := workload.Int64s(1, n)
	dests := workload.Permutation(2, n)
	want := Sequential(vals, dests)
	for _, tc := range []struct {
		p, d int
		bal  bool
	}{{1, 1, false}, {2, 2, false}, {4, 2, true}} {
		cfg := core.Config{V: 4, P: tc.p, D: tc.d, B: 16, Balanced: tc.bal}
		got, res, err := EMPermute(vals, dests, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: out[%d] = %d, want %d", tc, i, got[i], want[i])
			}
		}
		if res.IO.ParallelOps == 0 {
			t.Errorf("%+v: no I/O recorded", tc)
		}
	}
}

func TestEMPermuteIdentityAndReverse(t *testing.T) {
	const n = 256
	vals := workload.Int64s(9, n)
	id := make([]int64, n)
	rev := make([]int64, n)
	for i := range id {
		id[i] = int64(i)
		rev[i] = int64(n - 1 - i)
	}
	for name, dests := range map[string][]int64{"identity": id, "reverse": rev} {
		got, _, err := EMPermute(vals, dests, core.Config{V: 4, P: 2, D: 2, B: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Sequential(vals, dests)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: out[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestBaselinePermute(t *testing.T) {
	const n = 500
	vals := workload.Int64s(3, n)
	dests := workload.Permutation(4, n)
	arr := pdm.NewMemArray(2, 8)
	got, info, err := Baseline(arr, vals, dests, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(vals, dests)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if info.SortOps == 0 {
		t.Error("baseline recorded no I/O")
	}
}

func TestPermuteProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, n16 uint16, v8 uint8) bool {
		n := int(n16)%300 + 1
		v := int(v8)%6 + 1
		vals := workload.Int64s(seed, n)
		dests := workload.Permutation(seed+1, n)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Dest: dests[i], Val: vals[i]}
		}
		res, err := cgm.Run[Item](New(n), v, cgm.Scatter(items, v))
		if err != nil {
			return false
		}
		want := Sequential(vals, dests)
		out := res.Output()
		for i := range want {
			if out[i].Val != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The structured permutation classes of Section 1.2 (bit reversal, cyclic
// shift, matrix re-blocking) are worst cases for naive external
// permutation; CGMPermute handles them all in λ = 2 rounds with the same
// I/O as a random permutation under the paper's content-oblivious
// schedule. The default live-extent schedule moves only the blocks each
// class's messages fill, which depends on the class, but never more than
// the oblivious schedule.
func TestStructuredPermutationClasses(t *testing.T) {
	const k = 10
	n := 1 << k
	vals := workload.Int64s(1, n)
	classes := map[string][]int64{
		"bit-reversal": workload.BitReversalPermutation(k),
		"cyclic-shift": workload.CyclicShiftPermutation(n, n/3),
		"re-blocking":  workload.MatrixReblockPermutation(32, 32, 8),
	}
	oblivious := core.Config{V: 4, P: 2, D: 2, B: 32, Oblivious: true}
	var randomOps int64
	{
		_, res, err := EMPermute(vals, workload.Permutation(2, n), oblivious)
		if err != nil {
			t.Fatal(err)
		}
		randomOps = res.IO.ParallelOps
	}
	for name, dests := range classes {
		want := Sequential(vals, dests)
		var obliviousOps int64
		for _, cfg := range []core.Config{oblivious, {V: 4, P: 2, D: 2, B: 32}} {
			got, res, err := EMPermute(vals, dests, cfg)
			if err != nil {
				t.Fatalf("%s oblivious=%v: %v", name, cfg.Oblivious, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s oblivious=%v: out[%d] = %d, want %d", name, cfg.Oblivious, i, got[i], want[i])
				}
			}
			if cfg.Oblivious {
				// Content-oblivious schedule: structured classes cost the
				// same as random.
				obliviousOps = res.IO.ParallelOps
				if obliviousOps != randomOps {
					t.Errorf("%s: %d ops, random permutation took %d", name, obliviousOps, randomOps)
				}
			} else if res.IO.ParallelOps > obliviousOps {
				t.Errorf("%s: live schedule took %d ops, above the oblivious %d", name, res.IO.ParallelOps, obliviousOps)
			}
		}
	}
}
