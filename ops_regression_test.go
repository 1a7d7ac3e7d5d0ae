package repro

// The PDM accounting is the correctness contract of the simulation: the
// paper's theorems bound ParallelOps, and every performance optimisation
// of the hot path (persistent disk workers, pooled superstep scratch,
// bulk codecs) must leave the counted operations bit-identical. The
// expected values below were captured from the seed implementation
// (commit 32bc9f4, goroutine-per-op dispatch and per-round allocation)
// and pin the cost model in place. The seed moved every reserved block
// of every context and message slot, so TestIOOpsMatchSeed runs each
// case with core.Config.Oblivious; TestIOOpsLiveExtent pins the default
// live-extent counts of the same cases against them.

import (
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

func TestIOOpsMatchSeed(t *testing.T) {
	type want struct {
		parallelOps, ctxOps, msgOps int64
		rounds, maxTracks           int
	}
	cases := []struct {
		name          string
		v, p, d, b, n int
		balanced      bool
		want          want
	}{
		{"sort-seq", 8, 1, 2, 64, 1 << 12, false, want{1368, 792, 576, 4, 297}},
		{"sort-par", 8, 4, 2, 64, 1 << 12, false, want{1368, 792, 576, 4, 75}},
		{"sort-par-balanced", 8, 4, 2, 64, 1 << 12, true, want{7296, 3840, 3456, 7, 213}},
		{"sort-seq-D3", 4, 1, 3, 32, 1 << 10, false, want{444, 252, 192, 4, 100}},
		{"sort-par-D1", 4, 2, 1, 32, 1 << 10, false, want{1332, 756, 576, 4, 142}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			keys := workload.Int64s(7, c.n)
			cfg := core.Config{V: c.v, P: c.p, D: c.d, B: c.b, Balanced: c.balanced, Oblivious: true}
			_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.IO.ParallelOps != c.want.parallelOps {
				t.Errorf("ParallelOps = %d, seed counted %d", res.IO.ParallelOps, c.want.parallelOps)
			}
			if res.CtxOps != c.want.ctxOps {
				t.Errorf("CtxOps = %d, seed counted %d", res.CtxOps, c.want.ctxOps)
			}
			if res.MsgOps != c.want.msgOps {
				t.Errorf("MsgOps = %d, seed counted %d", res.MsgOps, c.want.msgOps)
			}
			if res.Rounds != c.want.rounds {
				t.Errorf("Rounds = %d, seed counted %d", res.Rounds, c.want.rounds)
			}
			if res.MaxTracks != c.want.maxTracks {
				t.Errorf("MaxTracks = %d, seed counted %d", res.MaxTracks, c.want.maxTracks)
			}
		})
	}

	t.Run("permute-par", func(t *testing.T) {
		const n = 1 << 10
		vals := workload.Int64s(3, n)
		dests := workload.Permutation(4, n)
		_, res, err := permute.EMPermute(vals, dests, core.Config{V: 4, P: 2, D: 2, B: 32, Oblivious: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.IO.ParallelOps != 468 || res.CtxOps != 180 || res.MsgOps != 288 {
			t.Errorf("ops = (%d, ctx %d, msg %d), seed counted (468, ctx 180, msg 288)",
				res.IO.ParallelOps, res.CtxOps, res.MsgOps)
		}
	})

	// The file-backed disks must count exactly as MemDisk in every mode:
	// buffered or O_DIRECT, depth 1 (the synchronous issue order, the
	// "sync" case) or the default window, the batched vectored path
	// included. Accounting is charged at operation begin, so
	// none of the backend mechanics may show up in the PDM measure.
	t.Run("filedisk-modes", func(t *testing.T) {
		seed := want{1368, 792, 576, 4, 297} // the sort-seq case above
		keys := workload.Int64s(7, 1<<12)
		modes := []struct {
			name   string
			direct bool
			depth  int
		}{
			{"buffered-sync", false, 1},
			{"buffered-pipelined", false, 0},
			{"direct-pipelined", true, 0},
		}
		for _, m := range modes {
			t.Run(m.name, func(t *testing.T) {
				dir := t.TempDir()
				if m.direct && !pdm.DirectIOSupported(dir, 64) {
					t.Skip("filesystem does not support O_DIRECT")
				}
				cfg := core.Config{
					V: 8, P: 1, D: 2, B: 64,
					DiskDir: dir, DirectIO: m.direct, PipelineDepth: m.depth, Oblivious: true,
				}
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := want{res.IO.ParallelOps, res.CtxOps, res.MsgOps, res.Rounds, res.MaxTracks}
				if got != seed {
					t.Errorf("ops = %+v, seed counted %+v", got, seed)
				}
				if res.Syscalls < 1 {
					t.Errorf("Syscalls = %d, want > 0 on file-backed disks", res.Syscalls)
				}
			})
		}
	})

	t.Run("runseq-direct", func(t *testing.T) {
		const n = 1 << 11
		keys := workload.Int64s(9, n)
		cfg := sortalg.EMSortConfig(core.Config{V: 4, P: 1, D: 2, B: 64, Oblivious: true}, n)
		res, err := core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgm.Scatter(keys, 4))
		if err != nil {
			t.Fatal(err)
		}
		if res.IO.ParallelOps != 684 || res.CtxOps != 396 || res.MsgOps != 288 || res.MaxTracks != 94 {
			t.Errorf("ops = (%d, ctx %d, msg %d, tracks %d), seed counted (684, ctx 396, msg 288, tracks 94)",
				res.IO.ParallelOps, res.CtxOps, res.MsgOps, res.MaxTracks)
		}
	})

	// The depth-k sliding window only reorders operation begins — the
	// operation multiset, and with it every seed count above, is pinned
	// at every window depth, sequential and parallel drivers alike.
	t.Run("depth-invariance", func(t *testing.T) {
		// The sort-seq and sort-par seed counts above, per driver.
		seeds := map[int]want{
			1: {1368, 792, 576, 4, 297},
			4: {1368, 792, 576, 4, 75},
		}
		keys := workload.Int64s(7, 1<<12)
		for _, k := range []int{1, 2, 4, 8} {
			for p, seed := range seeds {
				cfg := core.Config{V: 8, P: p, D: 2, B: 64, PipelineDepth: k, Oblivious: true}
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
				if err != nil {
					t.Fatalf("k=%d p=%d: %v", k, p, err)
				}
				got := want{res.IO.ParallelOps, res.CtxOps, res.MsgOps, res.Rounds, res.MaxTracks}
				if got != seed {
					t.Errorf("k=%d p=%d: ops = %+v, seed counted %+v", k, p, got, seed)
				}
			}
		}
	})
}

// TestIOOpsLiveExtent pins the default live-extent counts of the
// TestIOOpsMatchSeed cases. Every case also runs under Oblivious, and no
// live count may exceed its oblivious one — the Theorem 2/3 bound
// carried over to the live schedule: each live transfer moves a prefix
// of a reserved run that the oblivious schedule moves whole, at the same
// addresses, and FIFO packing of a prefix never takes more cycles. The
// rounds are the program's and do not move.
func TestIOOpsLiveExtent(t *testing.T) {
	type counts struct {
		parallelOps, ctxOps, msgOps int64
		rounds, maxTracks           int
	}
	of := func(io pdm.IOStats, ctx, msg int64, rounds, tracks int) counts {
		return counts{io.ParallelOps, ctx, msg, rounds, tracks}
	}
	sortRun := func(cfg core.Config, n int) func(core.Config) (counts, error) {
		keys := workload.Int64s(7, n)
		return func(mode core.Config) (counts, error) {
			cfg.Oblivious, cfg.PipelineDepth, cfg.DiskDir = mode.Oblivious, mode.PipelineDepth, mode.DiskDir
			_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
			if err != nil {
				return counts{}, err
			}
			return of(res.IO, res.CtxOps, res.MsgOps, res.Rounds, res.MaxTracks), nil
		}
	}
	permuteRun := func(mode core.Config) (counts, error) {
		const n = 1 << 10
		_, res, err := permute.EMPermute(workload.Int64s(3, n), workload.Permutation(4, n),
			core.Config{V: 4, P: 2, D: 2, B: 32, Oblivious: mode.Oblivious})
		if err != nil {
			return counts{}, err
		}
		return of(res.IO, res.CtxOps, res.MsgOps, res.Rounds, res.MaxTracks), nil
	}
	directRun := func(mode core.Config) (counts, error) {
		const n = 1 << 11
		cfg := sortalg.EMSortConfig(core.Config{V: 4, P: 1, D: 2, B: 64, Oblivious: mode.Oblivious}, n)
		res, err := core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgm.Scatter(workload.Int64s(9, n), 4))
		if err != nil {
			return counts{}, err
		}
		return of(res.IO, res.CtxOps, res.MsgOps, res.Rounds, res.MaxTracks), nil
	}
	cases := []struct {
		name string
		run  func(core.Config) (counts, error)
		live counts
	}{
		{"sort-seq", sortRun(core.Config{V: 8, P: 1, D: 2, B: 64}, 1<<12), counts{420, 291, 129, 4, 296}},
		{"sort-par", sortRun(core.Config{V: 8, P: 4, D: 2, B: 64}, 1<<12), counts{421, 291, 130, 4, 74}},
		{"sort-par-balanced", sortRun(core.Config{V: 8, P: 4, D: 2, B: 64, Balanced: true}, 1<<12), counts{1795, 1171, 624, 7, 210}},
		{"sort-seq-D3", sortRun(core.Config{V: 4, P: 1, D: 3, B: 32}, 1<<10), counts{140, 92, 48, 4, 99}},
		{"sort-par-D1", sortRun(core.Config{V: 4, P: 2, D: 1, B: 32}, 1<<10), counts{358, 258, 100, 4, 139}},
		{"permute-par", permuteRun, counts{198, 116, 82, 2, 159}},
		{"runseq-direct", directRun, counts{215, 147, 68, 4, 93}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			obl, err := c.run(core.Config{Oblivious: true})
			if err != nil {
				t.Fatal(err)
			}
			live, err := c.run(core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if live != c.live {
				t.Errorf("live counts = %+v, pinned %+v", live, c.live)
			}
			if live.parallelOps > obl.parallelOps || live.ctxOps > obl.ctxOps || live.msgOps > obl.msgOps ||
				live.maxTracks > obl.maxTracks || live.rounds != obl.rounds {
				t.Errorf("live counts %+v exceed the oblivious %+v", live, obl)
			}
		})
	}

	// Like the oblivious counts, the live ones are a function of the
	// program and the geometry alone: every window depth (1 is the
	// synchronous issue order) and backend moves the same blocks.
	t.Run("schedule-invariance", func(t *testing.T) {
		for _, c := range cases[:2] {
			modes := []core.Config{
				{DiskDir: t.TempDir()},
				{DiskDir: t.TempDir(), PipelineDepth: 1},
			}
			for _, k := range []int{1, 2, 4, 8} {
				modes = append(modes, core.Config{PipelineDepth: k})
			}
			for _, m := range modes {
				got, err := c.run(m)
				if err != nil {
					t.Fatal(err)
				}
				if got != c.live {
					t.Errorf("%s depth=%d file=%v: counts %+v, pinned %+v",
						c.name, m.PipelineDepth, m.DiskDir != "", got, c.live)
				}
			}
		}
	})
}
