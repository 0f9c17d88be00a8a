package main

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// stepCapture keeps the kernel records of the steps it is armed for. It is
// a simgpu.Device.Subscribe listener: the device calls it under its lock as
// kernels complete, and the benchmark arms and reads it between steps.
type stepCapture struct {
	armed    bool // keep records
	counting bool // count completed kernels
	recs     []simgpu.KernelRecord
	count    int64
}

func (c *stepCapture) listen(rec simgpu.KernelRecord) {
	if c.armed {
		c.recs = append(c.recs, rec)
	}
	if c.counting {
		c.count++
	}
}

// layerKey splits a runtime kernel tag ("conv1/fwd|conv1/n3") into the
// layer and the pass.
func layerKey(tag string) (layer, pass string) {
	if i := strings.IndexByte(tag, '|'); i >= 0 {
		tag = tag[:i]
	}
	layer, pass, _ = strings.Cut(tag, "/")
	return layer, pass
}

// forwardEnd is the virtual time at which the last forward kernel of a
// step retired (the step's clock starts at 0).
func forwardEnd(recs []simgpu.KernelRecord) time.Duration {
	var end time.Duration
	for _, r := range recs {
		if _, pass := layerKey(r.Tag); pass == "fwd" && r.End > end {
			end = r.End
		}
	}
	return end
}

// layerVirtual sets dnn.<layer>.{fwd,bwd}_virtual_ms: the virtual span
// (last end minus first start) of each layer pass's kernels in one step.
func layerVirtual(res *result, recs []simgpu.KernelRecord) {
	type iv struct{ lo, hi time.Duration }
	spans := map[string]*iv{}
	for _, r := range recs {
		layer, pass := layerKey(r.Tag)
		if pass != "fwd" && pass != "bwd" {
			continue
		}
		k := "dnn." + layer + "." + pass + "_virtual_ms"
		if s := spans[k]; s == nil {
			spans[k] = &iv{r.Start, r.End}
		} else {
			s.lo, s.hi = min(s.lo, r.Start), max(s.hi, r.End)
		}
	}
	for k, s := range spans {
		res.layer[k] = ms(s.hi - s.lo)
	}
}

// inflightMean is the mean number of kernels resident over a step: the sum
// of kernel durations divided by the step's virtual span.
func inflightMean(recs []simgpu.KernelRecord) float64 {
	if len(recs) == 0 {
		return 0
	}
	var busy, lo, hi time.Duration
	lo, hi = recs[0].Start, recs[0].End
	for _, r := range recs {
		busy += r.Duration()
		lo, hi = min(lo, r.Start), max(hi, r.End)
	}
	if hi <= lo {
		return 0
	}
	return float64(busy) / float64(hi-lo)
}

// planWidths records core.<layer>.{fwd,bwd}_width and returns them keyed by
// plan key, so runs can be compared for exact repetition.
func planWidths(res *result, plans []*core.Plan) map[string]float64 {
	out := map[string]float64{}
	for _, p := range plans {
		layer, pass := layerKey(p.Key)
		if pass != "fwd" && pass != "bwd" {
			continue
		}
		out["width "+p.Key] = float64(p.Streams)
		res.layer["core."+layer+"."+pass+"_width"] = float64(p.Streams)
	}
	return out
}

// ledgerLayers records the runtime's overhead ledger: the one-time T_p,
// T_a and T_s, and the per-step dispatch, throttle and copy-overlap deltas
// over the timed phase.
func ledgerLayers(res *result, before, after core.Snapshot, steps int) {
	res.layer["core.profile_ms"] = ms(after.Tp)
	res.layer["core.analyze_ms"] = ms(after.Ta)
	res.layer["core.streams_ms"] = ms(after.Ts)
	res.layer["core.recoveries"] = float64(after.Recoveries())
	res.layer["core.budget_throttles"] = float64(after.BudgetThrottles - before.BudgetThrottles)
	if steps > 0 {
		res.layer["core.dispatches_per_step"] = float64(after.Dispatches-before.Dispatches) / float64(steps)
		res.layer["core.copy_overlap_virtual_ms"] = ms(time.Duration(after.CopyOverlapNs-before.CopyOverlapNs)) / float64(steps)
	}
}

// tensorProbe times tensor.Im2col and tensor.Gemm on the workload's own
// conv geometries (one image, the per-image GEMM a conv layer issues) at
// the active ISA: tensor.im2col_ms.<conv> is milliseconds per image and
// tensor.gemm_gflops.<conv> the GEMM's rate.
func tensorProbe(tr *tracer, res *result, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
		return s
	}
	root := tr.begin("bench.tensor_probe", 0, 0)
	defer tr.end(root)
	for _, row := range res.convs {
		g := tensor.ConvGeom{
			Channels: row.Ci, Height: row.HW, Width: row.HW,
			KernelH: row.F, KernelW: row.F, StrideH: row.S, StrideW: row.S, PadH: row.P, PadW: row.P,
		}
		m, n, k := row.Co, g.ColCols(), g.ColRows()
		img, col := fill(row.Ci*row.HW*row.HW), make([]float32, k*n)
		a, c := fill(m*k), make([]float32, m*n)
		var im2col, gemm []float64
		// At least three repetitions and at least 50 ms of GEMM per conv.
		for spent := time.Duration(0); len(gemm) < 3 || spent < 50*time.Millisecond; {
			t0 := time.Now()
			id := tr.begin("tensor.Im2col", root, 0)
			tensor.Im2col(img, g, col)
			tr.end(id)
			t1 := time.Now()
			id = tr.begin("tensor.Gemm", root, 0)
			tensor.Gemm(false, false, m, n, k, 1, a, col, 0, c)
			tr.end(id)
			t2 := time.Now()
			im2col = append(im2col, ms(t1.Sub(t0)))
			gemm = append(gemm, t2.Sub(t1).Seconds())
			spent += t2.Sub(t1)
		}
		res.layer["tensor.im2col_ms."+row.Layer] = median(im2col)
		res.layer["tensor.gemm_gflops."+row.Layer] = 2 * float64(m) * float64(n) * float64(k) / median(gemm) / 1e9
	}
}

// replayProbe relaunches one recorded steady step's kernels, in issue
// order and on the same stream numbering, on a fresh device through
// simgpu.Device.Launch (transfers through the Memcpy calls) and
// Synchronize: simgpu.host_us_per_kernel is the
// host cost per kernel (median of three replays). It also records the
// step's kernel count and mean in-flight kernels.
func replayProbe(tr *tracer, res *result) error {
	recs := append([]simgpu.KernelRecord(nil), res.steady...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	kernels := make([]simgpu.Kernel, len(recs))
	for i, r := range recs {
		kernels[i] = simgpu.Kernel{
			Name: r.Name, Tag: r.Tag,
			Config: simgpu.LaunchConfig{Grid: r.Grid, Block: r.Block, RegsPerThread: r.RegsPerThread, SharedMemBytes: r.SharedMemBytes},
			Cost:   simgpu.Cost{FLOPs: r.FLOPs, Bytes: r.Bytes},
		}
	}
	root := tr.begin("bench.simgpu_replay", 0, 0)
	defer tr.end(root)
	var per []float64
	for rep := 0; rep < 3 && len(kernels) > 0; rep++ {
		dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithTraceLimit(1))
		streams := map[int]*simgpu.Stream{0: nil}
		for _, r := range recs {
			if _, ok := streams[r.StreamID]; !ok {
				s, err := dev.CreateStream()
				if err != nil {
					return err
				}
				streams[r.StreamID] = s
			}
		}
		t0 := time.Now()
		id := tr.begin("simgpu.Device.Launch", root, 0)
		for i, r := range recs {
			var err error
			switch s := streams[r.StreamID]; r.Name {
			case "memcpyHtoD":
				err = dev.MemcpyHostToDevice(int64(r.Bytes), s)
			case "memcpyDtoH":
				err = dev.MemcpyDeviceToHost(int64(r.Bytes), s)
			default:
				err = dev.Launch(&kernels[i], s)
			}
			if err != nil {
				return err
			}
		}
		tr.end(id)
		id = tr.begin("simgpu.Device.Synchronize", root, 0)
		_, err := dev.Synchronize()
		tr.end(id)
		if err != nil {
			return err
		}
		per = append(per, time.Since(t0).Seconds()*1e6/float64(len(kernels)))
	}
	res.layer["simgpu.host_us_per_kernel"] = median(per)
	res.layer["simgpu.inflight_mean"] = inflightMean(res.steady)
	return nil
}
