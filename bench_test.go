package repro

// One benchmark per table/figure of the paper's evaluation. Each reports
// the figure's headline quantity as a custom metric next to wall time:
//
//   - Fig. 3:  vm/em time ratio (the thrashing crossover)
//   - Fig. 4:  parallel I/Os at D = 1 vs D = 2
//   - Fig. 5:  io-const = ParallelOps/(N/pDB) per problem row — flat in N
//     for the O(N/pDB) class — under the default live extents, beside
//     io-const-paper under the paper's content-oblivious extents
//   - Fig. 6/7: the parameter-space surface (pure computation)
//   - Fig. 8:  modelled throughput at each block size
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/rec"
	"repro/internal/sortalg"
	"repro/internal/theory"
	"repro/internal/transpose"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

const (
	benchV = 8
	benchP = 4
	benchD = 2
	benchB = 256
)

func ioConst(ops int64, n int) float64 {
	return float64(ops) / (float64(n) / float64(benchP*benchD*benchB))
}

// reportIOConsts reports a Figure 5 row's two I/O constants: io-const
// from the timed runs, which use the default live extents, and
// io-const-paper from one more run under the paper's content-oblivious
// extents (core.Config.Oblivious), made with the timer and allocation
// counters stopped so it does not perturb the row's time or B/op.
func reportIOConsts(b *testing.B, n int, liveOps int64, run func(oblivious bool) int64) {
	b.StopTimer()
	b.ReportMetric(ioConst(liveOps, n), "io-const")
	b.ReportMetric(ioConst(run(true), n), "io-const-paper")
}

// BenchmarkFig3 measures EM-CGM sorting across the sizes of Figure 3 and
// reports the modelled VM/EM time ratio (the virtual-memory baseline
// explodes past the knee; EM-CGM stays linear).
func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	mWords := 1 << 15
	vm := theory.DefaultVMModel(mWords)
	tm := pdm.DefaultTimeModel()
	for _, n := range []int{1 << 14, 1 << 15, 1 << 16, 1 << 17} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			keys := workload.Int64s(int64(n), n)
			var ratio float64
			for i := 0; i < b.N; i++ {
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
					core.Config{V: benchV, P: benchP, D: benchD, B: benchB})
				if err != nil {
					b.Fatal(err)
				}
				emT := tm.IOTime(res.IO.ParallelOps/int64(benchP), benchB)
				ratio = float64(vm.SortTime(n)) / float64(emT)
			}
			b.ReportMetric(ratio, "vm/em-ratio")
		})
	}
}

// BenchmarkFig4 measures the D = 1 vs D = 2 contrast of Figure 4.
func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 16
	for _, d := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			keys := workload.Int64s(4, n)
			var ops int64
			for i := 0; i < b.N; i++ {
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
					core.Config{V: benchV, P: benchP, D: d, B: benchB})
				if err != nil {
					b.Fatal(err)
				}
				ops = res.IO.ParallelOps
			}
			b.ReportMetric(float64(ops), "parallel-IOs")
		})
	}
}

// BenchmarkFig5GroupA regenerates the Group A rows: sorting, permutation,
// transpose, plus the PDM mergesort baseline.
func BenchmarkFig5GroupA(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 16
	b.Run("sort-emcgm", func(b *testing.B) {
		b.ReportAllocs()
		keys := workload.Int64s(1, n)
		run := func(oblivious bool) int64 {
			_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
				core.Config{V: benchV, P: benchP, D: benchD, B: benchB, Oblivious: oblivious})
			if err != nil {
				b.Fatal(err)
			}
			return res.IO.ParallelOps
		}
		var ops int64
		for i := 0; i < b.N; i++ {
			ops = run(false)
		}
		reportIOConsts(b, n, ops, run)
	})
	b.Run("sort-pdm-baseline", func(b *testing.B) {
		b.ReportAllocs()
		var c float64
		for i := 0; i < b.N; i++ {
			arr := pdm.NewMemArray(benchD, benchB)
			recs := make([]pdm.Word, n)
			copy(recs, workload.Uint64s(2, n))
			_, info, err := sortalg.MergeSort(arr, recs, 1, 3*benchD*benchB)
			if err != nil {
				b.Fatal(err)
			}
			c = float64(info.SortOps) / (float64(n) / float64(benchD*benchB))
		}
		b.ReportMetric(c, "io-const")
	})
	b.Run("permute", func(b *testing.B) {
		b.ReportAllocs()
		vals := workload.Int64s(3, n)
		dests := workload.Permutation(4, n)
		run := func(oblivious bool) int64 {
			_, res, err := permute.EMPermute(vals, dests,
				core.Config{V: benchV, P: benchP, D: benchD, B: benchB, Oblivious: oblivious})
			if err != nil {
				b.Fatal(err)
			}
			return res.IO.ParallelOps
		}
		var ops int64
		for i := 0; i < b.N; i++ {
			ops = run(false)
		}
		reportIOConsts(b, n, ops, run)
	})
	b.Run("transpose", func(b *testing.B) {
		b.ReportAllocs()
		const k = 256
		vals := workload.Int64s(5, n)
		run := func(oblivious bool) int64 {
			_, res, err := transpose.EMTranspose(vals, k, n/k,
				core.Config{V: benchV, P: benchP, D: benchD, B: benchB, Oblivious: oblivious})
			if err != nil {
				b.Fatal(err)
			}
			return res.IO.ParallelOps
		}
		var ops int64
		for i := 0; i < b.N; i++ {
			ops = run(false)
		}
		reportIOConsts(b, n, ops, run)
	})
}

// BenchmarkFig5GroupB regenerates the geometry rows of Figure 5.
func BenchmarkFig5GroupB(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 12
	runB := func(name string, f func(e *rec.Exec) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			run := func(oblivious bool) int64 {
				e := rec.NewEM(benchV, benchP, benchD, benchB)
				e.Oblivious = oblivious
				if err := f(e); err != nil {
					b.Fatal(err)
				}
				return e.IO.ParallelOps
			}
			var ops int64
			for i := 0; i < b.N; i++ {
				ops = run(false)
			}
			reportIOConsts(b, n, ops, run)
		})
	}
	runB("trapezoidal-decomposition", func(e *rec.Exec) error {
		_, err := geom.TrapezoidalDecomposition(e, workload.NonIntersectingSegments(1, n/2))
		return err
	})
	runB("point-location", func(e *rec.Exec) error {
		ss := workload.NonIntersectingSegments(2, n/2)
		faces := make([]int, len(ss))
		_, err := geom.LocatePoints(e, ss, faces, workload.Points(3, n/2))
		return err
	})
	runB("convex-hull", func(e *rec.Exec) error {
		_, err := geom.Hull(e, workload.Points(4, n))
		return err
	})
	runB("lower-envelope", func(e *rec.Exec) error {
		_, err := geom.Envelope(e, workload.NonIntersectingSegments(5, n))
		return err
	})
	runB("union-area", func(e *rec.Exec) error {
		_, err := geom.UnionArea(e, workload.Rects(6, n, 0.05))
		return err
	})
	runB("maxima3d", func(e *rec.Exec) error {
		_, err := geom.Maxima3D(e, workload.Points3(7, n))
		return err
	})
	runB("ann", func(e *rec.Exec) error {
		_, err := geom.ANN(e, workload.Points(8, n))
		return err
	})
	runB("dominance", func(e *rec.Exec) error {
		pts := workload.Points(9, n)
		w := make([]float64, n)
		_, err := geom.Dominance(e, pts, w)
		return err
	})
	runB("separability", func(e *rec.Exec) error {
		red := workload.Points(10, n/2)
		blue := workload.Points(11, n/2)
		_, err := geom.Separable(e, red, blue)
		return err
	})
	runB("triangulation", func(e *rec.Exec) error {
		_, err := geom.Triangulate(e, geom.RandomMonotonePolygon(12, n))
		return err
	})
}

// BenchmarkFig5GroupC regenerates the graph rows of Figure 5.
func BenchmarkFig5GroupC(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 12
	runC := func(name string, f func(e *rec.Exec) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			run := func(oblivious bool) int64 {
				e := rec.NewEM(benchV, benchP, benchD, benchB)
				e.Oblivious = oblivious
				if err := f(e); err != nil {
					b.Fatal(err)
				}
				return e.IO.ParallelOps
			}
			var ops int64
			for i := 0; i < b.N; i++ {
				ops = run(false)
			}
			reportIOConsts(b, n, ops, run)
		})
	}
	runC("list-ranking", func(e *rec.Exec) error {
		succ, _ := workload.List(1, n)
		_, err := graph.ListRank(e, succ)
		return err
	})
	runC("euler-tour-tree-funcs", func(e *rec.Exec) error {
		parent, root := workload.Tree(2, n)
		_, _, _, err := graph.TreeFuncs(e, parent, root)
		return err
	})
	runC("lca", func(e *rec.Exec) error {
		parent, root := workload.Tree(3, n)
		qs := make([][2]int64, n/4)
		for i := range qs {
			qs[i] = [2]int64{int64(i % n), int64((i * 13) % n)}
		}
		_, err := graph.LCA(e, parent, root, qs)
		return err
	})
	runC("tree-contraction", func(e *rec.Exec) error {
		_, err := graph.ExprEval(e, workload.ExprTree(4, n/2))
		return err
	})
	runC("connected-components", func(e *rec.Exec) error {
		_, _, err := graph.ConnectedComponents(e, n/4, workload.Graph(5, n/4, n))
		return err
	})
	runC("biconnected-components", func(e *rec.Exec) error {
		_, err := graph.Biconn(e, n/8, workload.Graph(6, n/8, n/2))
		return err
	})
}

// BenchmarkFig6Surface evaluates the Figure 6/7 surface (pure math).
func BenchmarkFig6Surface(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		for v := 2.0; v <= 1e4; v *= 10 {
			for c := 2.0; c <= 4; c++ {
				sink += theory.MinNForConstant(c, v, 1000)
			}
		}
	}
	_ = sink
}

// BenchmarkFig8Throughput evaluates the block-size/throughput curve and
// reports the saturation point's throughput.
func BenchmarkFig8Throughput(b *testing.B) {
	b.ReportAllocs()
	m := pdm.DefaultTimeModel()
	var tp float64
	for i := 0; i < b.N; i++ {
		for bs := 1; bs <= 1<<17; bs *= 2 {
			tp = m.Throughput(bs)
		}
	}
	b.ReportMetric(tp/1e6, "MB/s-at-1Mi")
}

// BenchmarkBalancedRouting measures the ablation of Lemma 2: the same
// sort with and without BalancedRouting.
func BenchmarkBalancedRouting(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 15
	for _, bal := range []bool{false, true} {
		b.Run(fmt.Sprintf("balanced=%v", bal), func(b *testing.B) {
			b.ReportAllocs()
			keys := workload.Int64s(1, n)
			var ops int64
			for i := 0; i < b.N; i++ {
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
					core.Config{V: benchV, P: benchP, D: benchD, B: benchB, Balanced: bal})
				if err != nil {
					b.Fatal(err)
				}
				ops = res.IO.ParallelOps
			}
			b.ReportMetric(float64(ops), "parallel-IOs")
		})
	}
}

// BenchmarkScalability is Theorem 3's v/p scaling: per-processor I/O for
// the same problem as p grows (the paper's claim 6 — scalable in p).
func BenchmarkScalability(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 16
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			keys := workload.Int64s(1, n)
			var perProc float64
			for i := 0; i < b.N; i++ {
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
					core.Config{V: 8, P: p, D: benchD, B: benchB})
				if err != nil {
					b.Fatal(err)
				}
				var maxOps int64
				for _, s := range res.IOPerProc {
					if s.ParallelOps > maxOps {
						maxOps = s.ParallelOps
					}
				}
				perProc = float64(maxOps)
			}
			b.ReportMetric(perProc, "IOs-per-proc")
		})
	}
}

// TestBenchHarnessSmoke keeps the experiment package covered by `go test`:
// every figure must regenerate without error at a tiny scale.
func TestBenchHarnessSmoke(t *testing.T) {
	s := experiments.Scale{N: 1 << 12, V: 4, P: 2, B: 64}
	if _, err := experiments.Fig3(s); err != nil {
		t.Errorf("Fig3: %v", err)
	}
	if _, err := experiments.Fig4(s); err != nil {
		t.Errorf("Fig4: %v", err)
	}
	if _, err := experiments.Fig5(s); err != nil {
		t.Errorf("Fig5: %v", err)
	}
	if tb := experiments.Fig6(); len(tb.Rows) == 0 {
		t.Error("Fig6 empty")
	}
	if tb := experiments.Fig7(); len(tb.Rows) == 0 {
		t.Error("Fig7 empty")
	}
	if tb := experiments.Fig8(); len(tb.Rows) == 0 {
		t.Error("Fig8 empty")
	}
	if tb := experiments.Balance(); len(tb.Rows) == 0 {
		t.Error("Balance empty")
	}
	if tb, err := experiments.Cache(); err != nil || len(tb.Rows) == 0 {
		t.Errorf("Cache: %v", err)
	}
	if tb, err := experiments.Sweep(s); err != nil || len(tb.Rows) == 0 {
		t.Errorf("Sweep: %v", err)
	}
}

// BenchmarkBlockSizeSweep is the ablation connecting Figure 8 to the
// machine: the same sort at growing block size B. Parallel I/O count
// falls as 1/B while the modelled time per op grows only slowly past the
// knee — large blocks win, which is the paper's point in fixing B ≈ 10³.
func BenchmarkBlockSizeSweep(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 16
	tm := pdm.DefaultTimeModel()
	for _, bs := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("B=%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			keys := workload.Int64s(1, n)
			var modelled float64
			for i := 0; i < b.N; i++ {
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
					core.Config{V: benchV, P: benchP, D: benchD, B: bs})
				if err != nil {
					b.Fatal(err)
				}
				modelled = tm.IOTime(res.IO.ParallelOps/int64(benchP), bs).Seconds()
			}
			b.ReportMetric(modelled, "modelled-io-sec")
		})
	}
}

// BenchmarkVirtualProcessorSweep varies v at fixed N: more virtual
// processors shrink contexts (μ = N/v) but add rounds-independent matrix
// slots — the trade Theorem 2's G·O(λvμ/DB) captures.
func BenchmarkVirtualProcessorSweep(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 16
	for _, v := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			b.ReportAllocs()
			keys := workload.Int64s(2, n)
			var ops int64
			for i := 0; i < b.N; i++ {
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
					core.Config{V: v, P: 4, D: benchD, B: benchB})
				if err != nil {
					b.Fatal(err)
				}
				ops = res.IO.ParallelOps
			}
			b.ReportMetric(float64(ops), "parallel-IOs")
		})
	}
}

// BenchmarkObservation2Footprint compares the single-copy alternating
// message matrix (RunSeq) with the double-buffered layout (RunPar, p=1):
// same I/O semantics, roughly half the disk footprint.
func BenchmarkObservation2Footprint(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 14
	keys := workload.Int64s(3, n)
	cfg := sortalg.EMSortConfig(core.Config{V: benchV, P: 1, D: benchD, B: benchB}, n)
	b.Run("single-copy-seq", func(b *testing.B) {
		b.ReportAllocs()
		var tracks int
		for i := 0; i < b.N; i++ {
			res, err := core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgmScatter(keys, benchV))
			if err != nil {
				b.Fatal(err)
			}
			tracks = res.MaxTracks
		}
		b.ReportMetric(float64(tracks), "max-tracks")
	})
	b.Run("double-buffered-par", func(b *testing.B) {
		b.ReportAllocs()
		var tracks int
		for i := 0; i < b.N; i++ {
			res, err := core.RunPar[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgmScatter(keys, benchV))
			if err != nil {
				b.Fatal(err)
			}
			tracks = res.MaxTracks
		}
		b.ReportMetric(float64(tracks), "max-tracks")
	})
}

// BenchmarkCacheTuning is the Section 5 cache experiment as a benchmark.
func BenchmarkCacheTuning(b *testing.B) {
	b.ReportAllocs()
	m := cache.Model{MWords: 1 << 13, LineWords: 8, MissTime: 100}
	const n = 1 << 15
	keys := workload.Int64s(4, n)
	var ratio float64
	for i := 0; i < b.N; i++ {
		tuned, _, _, err := m.TunedSortMisses(keys)
		if err != nil {
			b.Fatal(err)
		}
		naive, _ := m.NaiveSortMisses(n)
		ratio = float64(naive) / float64(tuned)
	}
	b.ReportMetric(ratio, "naive/tuned-misses")
}

// cgmScatter re-exports the partitioner for benches.
func cgmScatter(keys []int64, v int) [][]int64 { return cgm.Scatter(keys, v) }

// BenchmarkContextCaching is the M = Θ(μ) ablation: at p = v, resident
// contexts eliminate the context-swap I/O, leaving only message-matrix
// traffic.
func BenchmarkContextCaching(b *testing.B) {
	b.ReportAllocs()
	const n, v = 1 << 16, 8
	keys := workload.Int64s(5, n)
	for _, cached := range []bool{false, true} {
		b.Run(fmt.Sprintf("cached=%v", cached), func(b *testing.B) {
			b.ReportAllocs()
			cfg := sortalg.EMSortConfig(core.Config{V: v, P: v, D: benchD, B: benchB, CacheContexts: cached}, n)
			var ops int64
			for i := 0; i < b.N; i++ {
				res, err := core.RunPar[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgmScatter(keys, v))
				if err != nil {
					b.Fatal(err)
				}
				ops = res.IO.ParallelOps
			}
			b.ReportMetric(float64(ops), "parallel-IOs")
		})
	}
}
