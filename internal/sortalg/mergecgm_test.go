package sortalg

import (
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

func TestTournamentSorterCorrect(t *testing.T) {
	for _, v := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{0, 1, 10, 500} {
			in := workload.Int64s(int64(v*100+n), n)
			res, err := cgm.Run[int64](TournamentSorter[int64]{}, v, cgm.Scatter(in, v))
			if err != nil {
				t.Fatalf("v=%d n=%d: %v", v, n, err)
			}
			checkSorted(t, "tournament", res.Output(), in)
			if v > 1 && res.Stats.Rounds != tournamentRounds(v)+1 {
				t.Errorf("v=%d: rounds = %d, want %d", v, res.Stats.Rounds, tournamentRounds(v)+1)
			}
		}
	}
}

// The round-count ablation (Theorem 2's λ factor): at equal N the
// tournament sorter's EM I/O exceeds PSRS's, and the gap widens with v.
// Theorem 2 prices every round at the reserved extents, so the ablation
// runs the content-oblivious schedule. Under live extents the tournament
// sorter's oversized worst-case slots cost only what its messages fill,
// and at these v it moves fewer blocks than PSRS.
func TestRoundAblationPSRSvsTournament(t *testing.T) {
	const n = 1 << 13
	in := workload.Int64s(9, n)
	gap := map[int]float64{}
	for _, v := range []int{4, 16} {
		cfgP := EMSortConfig(core.Config{V: v, P: 1, D: 2, B: 64, Oblivious: true}, n)
		psrs, err := core.RunSeq[int64](Sorter[int64]{}, wordcodec.I64{}, cfgP, cgm.Scatter(in, v))
		if err != nil {
			t.Fatal(err)
		}
		cfgT := core.Config{V: v, P: 1, D: 2, B: 64, MaxMsgItems: n, MaxCtxItems: n + v + 8, Oblivious: true}
		tour, err := core.RunSeq[int64](TournamentSorter[int64]{}, wordcodec.I64{}, cfgT, cgm.Scatter(in, v))
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, "psrs", psrs.Output(), in)
		checkSorted(t, "tournament", tour.Output(), in)
		if tour.IO.ParallelOps <= psrs.IO.ParallelOps {
			t.Errorf("v=%d: tournament I/O %d not above PSRS %d",
				v, tour.IO.ParallelOps, psrs.IO.ParallelOps)
		}
		gap[v] = float64(tour.IO.ParallelOps) / float64(psrs.IO.ParallelOps)
	}
	if gap[16] <= gap[4] {
		t.Errorf("λ = O(log v) penalty not growing with v: %v", gap)
	}
}
