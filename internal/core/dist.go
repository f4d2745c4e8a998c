package core

import (
	"context"
	"errors"
	"fmt"

	"wavelethpc/internal/budget"
	"wavelethpc/internal/filter"
	"wavelethpc/internal/image"
	"wavelethpc/internal/mesh"
	"wavelethpc/internal/nx"
	"wavelethpc/internal/wavelet"
	"wavelethpc/internal/wavelet/kernel"
)

// DistConfig describes one simulated coarse-grain MIMD decomposition run.
type DistConfig struct {
	// Machine is the simulated platform (mesh.Paragon() in the paper's
	// experiments).
	Machine *mesh.Machine
	// Placement maps ranks to mesh nodes (naive vs snake — Figure 4).
	Placement mesh.Placement
	// Procs is the number of SPMD ranks.
	Procs int
	// Bank and Levels select the filter/depth configuration (F8/L1,
	// F4/L2, F2/L4 in the paper). The decompositions require Bank;
	// DistributedReconstruct uses the pyramid's own bank and accepts a
	// nil Bank.
	Bank   *filter.Bank
	Levels int
	// Overlap posts the guard-zone receives asynchronously and filters
	// the guard-independent interior columns while the exchange is in
	// flight — the latency-hiding practice the report's budget model
	// favors ("the use of asynchronous rather than synchronous
	// communications").
	Overlap bool
	// Trace, when non-nil, records the run's nx event trace
	// (send/recv/compute/link-wait per rank; see nx.Trace).
	Trace *nx.Trace
}

// DistResult is the outcome of a simulated distributed decomposition.
type DistResult struct {
	// Pyramid is the assembled decomposition (bit-identical to the
	// sequential wavelet.Decompose result).
	Pyramid *wavelet.Pyramid
	// Sim carries the virtual-clock timing, budget, and network stats.
	Sim *nx.Result
	// ScatterTime, DecomposeTime, GatherTime split the elapsed virtual
	// time into the three program phases (max across ranks).
	ScatterTime, DecomposeTime, GatherTime float64
	// GuardTime is the largest per-rank total time spent in guard-zone
	// exchanges — where the naive placement's routing conflicts land.
	GuardTime float64
	// CheckpointTime is the largest per-rank time spent writing (and on
	// restart, reading) stripe checkpoints; zero outside fault-tolerant
	// runs.
	CheckpointTime float64
}

// phase clocks reported by each rank through SetResult.
type rankPhases struct {
	afterScatter, afterDecompose, done float64
	guard                              float64
	ckpt                               float64
}

// message tags for the distributed programs.
const (
	tagGuardUp   = 10 // guard rows flowing to the previous rank
	tagGuardDown = 11 // guard rows flowing to the next rank
	tagResult    = 20 // result stripes (tagResult + band index)
)

// validateStriped checks the divisibility constraints of the striped
// decomposition: every level's stripe must have an even, positive number
// of rows on every rank, and the deepest stripe must be tall enough to
// supply its neighbor's guard zone — the planner's halo for a filter of
// support f (wavelet.Halo).
func validateStriped(rows, cols, p, f, levels int) error {
	if err := wavelet.CheckDecomposable(rows, cols, levels); err != nil {
		return err
	}
	deepest := rows >> uint(levels-1)
	if deepest%p != 0 {
		return fmt.Errorf("core: %d rows at level %d not divisible by %d ranks", deepest, levels, p)
	}
	lr := deepest / p
	if lr%2 != 0 {
		return fmt.Errorf("core: deepest stripe height %d is odd", lr)
	}
	if halo := wavelet.Halo(f); halo > lr {
		return fmt.Errorf("core: filter length %d needs %d guard rows but deepest stripes have only %d rows", f, halo, lr)
	}
	return nil
}

// errNilBank reports a distributed run configured without a filter bank.
var errNilBank = errors.New("core: DistConfig.Bank is nil")

// DistributedDecompose runs the paper's striped SPMD algorithm on the
// simulated machine: rank 0 scatters row stripes, every level row-filters
// locally, exchanges guard zones with its ring neighbors, column-filters
// with the south guard, and rank 0 finally gathers the pyramid. Real pixel
// data flows through the simulator, so the assembled pyramid is verified
// against the sequential transform by the tests.
func DistributedDecompose(im *image.Image, cfg DistConfig) (*DistResult, error) {
	return DistributedDecomposeCtx(context.Background(), im, cfg)
}

// DistributedDecomposeCtx is DistributedDecompose with cooperative
// cancellation: a canceled context aborts the simulation between events.
func DistributedDecomposeCtx(ctx context.Context, im *image.Image, cfg DistConfig) (*DistResult, error) {
	return distributedDecompose(ctx, im, cfg, nil)
}

// distributedDecompose runs the striped program, optionally under a
// fault-tolerance driver: ft (nil outside FaultTolerantDecompose) injects
// the fault plan, resumes from a stripe checkpoint instead of scattering,
// and writes periodic checkpoints at level boundaries. With ft == nil the
// run is byte-identical to the original fault-free program.
func distributedDecompose(ctx context.Context, im *image.Image, cfg DistConfig, ft *ftRun) (*DistResult, error) {
	if cfg.Bank == nil {
		return nil, errNilBank
	}
	p := cfg.Procs
	f := cfg.Bank.DecLen()
	if err := validateStriped(im.Rows, im.Cols, p, f, cfg.Levels); err != nil {
		return nil, err
	}
	cost := cfg.Machine.Cost
	halo := wavelet.Halo(f)

	// Per-rank result stripes land here.
	collected := make([]stripeBands, p)

	prog := func(r *nx.Rank) {
		id := r.ID()
		var ph rankPhases
		var stripe *image.Image
		myBands := stripeBands{details: make([][3][]float64, cfg.Levels)}
		start := 0

		if ft.resuming() {
			// --- Restart: read the last consistent checkpoint ----------
			start = ft.startLevel
			stripe, myBands = ft.restore(r, &ph)
		} else {
			// --- Scatter -----------------------------------------------
			lr := im.Rows / p
			cc := im.Cols
			var parts [][]float64
			if id == 0 {
				parts = make([][]float64, p)
				for i := 0; i < p; i++ {
					parts[i] = flattenRows(im, i*lr, (i+1)*lr)
				}
				// Slicing the image into send buffers is parallelization
				// redundancy: a sequential program never copies.
				r.Compute(float64(im.Rows*im.Cols*8)*cost.MemByteTime, budget.UniqueRedundancy)
			}
			stripe = imageFromFlat(lr, cc, r.Scatter(0, parts))
		}
		ph.afterScatter = r.Clock()

		// --- Decomposition loop -----------------------------------------
		for l := start; l < cfg.Levels; l++ {
			// Per-level loop setup duplicated on every rank.
			r.ComputeOps(50, cost.FlopTime, budget.Duplication)
			// Domain-decomposition index arithmetic.
			r.ComputeOps(30, cost.FlopTime, budget.UniqueRedundancy)

			// Row pass: full rows are local, no guard needed (Figure 3).
			// The intermediates keep halo spare rows below the stripe,
			// where the south guard is received.
			rows, cols := stripe.Rows, stripe.Cols/2
			lExt := image.New(rows+halo, cols)
			hExt := image.New(rows+halo, cols)
			kernel.AnalyzeRowsRange(lExt, hExt, stripe, cfg.Bank, filter.Periodic, 0, rows)
			lImg, hImg := lExt.Sub(0, 0, rows, cols), hExt.Sub(0, 0, rows, cols)
			outputs := 2 * rows * cols
			r.Compute(float64(outputs)*(float64(f)*cost.MACTime+cost.CoefTime), budget.Useful)

			// Guard-zone exchange "around the processor local data":
			// each rank ships its top rows to the previous rank and its
			// bottom rows to the next, for both intermediate images. The
			// simulated guard is the calibrated min(f, rows) rows; the
			// column pass reads only its first halo rows.
			guardStart := r.Clock()
			g := min(f, rows)
			prev := (id - 1 + p) % p
			next := (id + 1) % p
			topGuard := packRows(0, g, lImg, hImg)
			botGuard := packRows(rows-g, rows, lImg, hImg)
			r.Compute(float64(len(topGuard)+len(botGuard))*8*cost.MemByteTime, budget.UniqueRedundancy)
			r.SendFloats(prev, tagGuardUp, topGuard)
			r.SendFloats(next, tagGuardDown, botGuard)
			reqSouth := r.IRecv(next, tagGuardUp)
			reqNorth := r.IRecv(prev, tagGuardDown)
			ph.guard += r.Clock() - guardStart

			// Column pass. With Overlap, the interior output rows (whose
			// filter support never reaches the guard) are computed while
			// the exchange is still in flight.
			half := rows / 2
			perOut := float64(f)*cost.MACTime + cost.CoefTime
			ll := image.New(half, cols)
			lh := image.New(half, cols)
			hl := image.New(half, cols)
			hh := image.New(half, cols)
			jInt := 0
			if cfg.Overlap {
				jInt = (rows-f)/2 + 1
				if rows < f {
					// Truncating division mishandles rows-f = -1 (odd
					// filter lengths): no output row is interior then.
					jInt = 0
				}
				jInt = min(jInt, half)
				stripeCols(ll, lh, lImg, cfg.Bank, 0, jInt)
				stripeCols(hl, hh, hImg, cfg.Bank, 0, jInt)
				r.Compute(float64(4*jInt*cols)*perOut, budget.Useful)
			}
			waitStart := r.Clock()
			southData, _ := reqSouth.WaitFloats()
			reqNorth.Wait() // north guard: symmetric exchange, unused by analysis
			ph.guard += r.Clock() - waitStart
			copy(lExt.Pix[rows*cols:], southData[:halo*cols])
			copy(hExt.Pix[rows*cols:], southData[g*cols:(g+halo)*cols])
			stripeCols(ll, lh, lExt, cfg.Bank, jInt, half)
			stripeCols(hl, hh, hExt, cfg.Bank, jInt, half)
			r.Compute(float64(4*(half-jInt)*cols)*perOut, budget.Useful)

			myBands.details[cfg.Levels-1-l] = [3][]float64{lh.Pix, hl.Pix, hh.Pix}
			stripe = ll

			// Level-end synchronization before the next decomposition
			// level starts.
			r.Barrier()
			if ft.checkpointDue(l+1, cfg.Levels) {
				ft.writeCheckpoint(r, l+1, stripe, myBands, &ph)
			}
		}
		myBands.approx = flattenRows(stripe, 0, stripe.Rows)
		ph.afterDecompose = r.Clock()

		// --- Gather ------------------------------------------------------
		gatherBands(r, myBands, collected, cost)
		ph.done = r.Clock()
		r.SetResult(ph)
	}

	ncfg := nx.Config{Machine: cfg.Machine, Placement: cfg.Placement, Procs: p, Trace: cfg.Trace}
	if ft != nil {
		ncfg.Fault = ft.plan
		ncfg.Reliable = ft.reliable
	}
	sim, err := nx.RunCtx(ctx, ncfg, prog)
	if err != nil {
		return nil, err
	}

	res := reducePhases(sim)
	// A stripe layout is a 1×p block grid.
	res.Pyramid = assembleBlocks(collected, im.Rows, im.Cols, 1, p, cfg)
	return res, nil
}

// stripeBands holds one rank's share of the decomposition results:
// the final approximation stripe (or block) plus per-level LH/HL/HH
// stripes (coarsest-first), all flattened row-major.
type stripeBands struct {
	approx  []float64
	details [][3][]float64
}

// gatherBands collects every rank's share of the pyramid on rank 0:
// each other rank packs its bands into a single message (one
// transaction per rank, as a tuned message-passing code would), and
// rank 0 unpacks them into collected by source rank.
func gatherBands(r *nx.Rank, mine stripeBands, collected []stripeBands, cost mesh.CostModel) {
	if r.ID() != 0 {
		n := len(mine.approx)
		for _, d := range mine.details {
			n += len(d[0]) + len(d[1]) + len(d[2])
		}
		packed := append(make([]float64, 0, n), mine.approx...)
		for _, d := range mine.details {
			for _, b := range d {
				packed = append(packed, b...)
			}
		}
		r.Compute(float64(len(packed))*8*cost.MemByteTime, budget.UniqueRedundancy)
		r.SendFloats(0, tagResult, packed)
		return
	}
	collected[0] = mine
	for src := 1; src < r.Procs(); src++ {
		packed, _ := r.RecvFloats(src, tagResult)
		in := stripeBands{details: make([][3][]float64, len(mine.details))}
		n := len(mine.approx)
		in.approx, packed = packed[:n], packed[n:]
		for l, d := range mine.details {
			for b := range d {
				n = len(d[b])
				in.details[l][b], packed = packed[:n], packed[n:]
			}
		}
		collected[src] = in
	}
}

// reducePhases folds the per-rank phase clocks into the run's phase
// times (each the maximum across ranks).
func reducePhases(sim *nx.Result) *DistResult {
	res := &DistResult{Sim: sim}
	for _, v := range sim.Values {
		ph := v.(rankPhases)
		res.ScatterTime = max(res.ScatterTime, ph.afterScatter)
		res.DecomposeTime = max(res.DecomposeTime, ph.afterDecompose-ph.afterScatter)
		res.GatherTime = max(res.GatherTime, ph.done-ph.afterDecompose)
		res.GuardTime = max(res.GuardTime, ph.guard)
		res.CheckpointTime = max(res.CheckpointTime, ph.ckpt)
	}
	return res
}

// stripeCols column-filters output rows [j0, j1) of a stripe (or block)
// through the kernel layer. Output row j reads src rows 2j .. 2j+f-1;
// when any of them lies below the stripe, src carries the south guard's
// first wavelet.Halo rows there, so every output row takes the kernel's
// interior path and matches the full-level pass bit for bit.
func stripeCols(lo, hi, src *image.Image, bank *filter.Bank, j0, j1 int) {
	n := j1 - j0
	kernel.AnalyzeColsRange(lo.Sub(j0, 0, n, lo.Cols), hi.Sub(j0, 0, n, hi.Cols),
		src.Sub(2*j0, 0, src.Rows-2*j0, src.Cols), bank, filter.Periodic, 0, src.Cols)
}

// packRows flattens rows [r0, r1) of each image in turn into one slice.
func packRows(r0, r1 int, ims ...*image.Image) []float64 {
	n := 0
	for _, im := range ims {
		n += (r1 - r0) * im.Cols
	}
	out := make([]float64, 0, n)
	for _, im := range ims {
		for r := r0; r < r1; r++ {
			out = append(out, im.Row(r)...)
		}
	}
	return out
}

// flattenRows copies rows [r0,r1) of im into a flat slice.
func flattenRows(im *image.Image, r0, r1 int) []float64 {
	out := make([]float64, 0, (r1-r0)*im.Cols)
	for r := r0; r < r1; r++ {
		out = append(out, im.Row(r)...)
	}
	return out
}

// imageFromFlat wraps a flat row-major slice as a rows×cols image,
// sharing its storage: received messages are fresh copies that no rank
// mutates.
func imageFromFlat(rows, cols int, flat []float64) *image.Image {
	if len(flat) != rows*cols {
		panic(fmt.Sprintf("core: flat data %d != %dx%d", len(flat), rows, cols))
	}
	return &image.Image{Rows: rows, Cols: cols, Stride: cols, Pix: flat}
}
