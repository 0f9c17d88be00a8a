package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/simgpu"
)

// train-dp-cifar10: real-math data-parallel CIFAR10 training, global batch
// 100 split over two simulated P100 replicas with GLP4NN in each, fed by
// prefetching input pipes, gradients through the default overlapped
// bucketed all-reduce on PCIe3, a host pool of nproc workers, and a durable
// checkpoint every few steps. One closed-loop caller.
const (
	dpReplicas    = 2
	dpShard       = 50   // per-replica batch; global batch 100
	dpCkptEvery   = 5    // steps between durable checkpoints
	dpWarmSteps   = 2    // profiling window + analysis, part of set-up
	dpRefSteps    = 4    // steps the reference arm repeats
	dpStepLimitMs = 1000 // closed-loop latency limit on a step's p99
)

// shardSeed is shard s's input stream seed (the glp4nn-train convention).
func shardSeed(seed int64, s int) int64 { return seed + 1 + int64(s)*17 }

type dpInstance struct {
	tr    *parallel.Trainer
	pipes []*models.InputPipe
	caps  []*stepCapture
	lst   []int
}

func (d *dpInstance) close() {
	for i, dev := range d.tr.Devices() {
		dev.Unsubscribe(d.lst[i])
	}
	d.tr.Close()
	for _, p := range d.pipes {
		p.Close()
	}
}

func dpBuild(rc runCtx, parent int64) parallel.BuildFunc {
	w := models.Workloads["CIFAR10"]
	return func(ctx *dnn.Context) (net *dnn.Net, err error) {
		err = rc.tr.do("models.Workload.Build", parent, 0, func(int64) error {
			net, err = w.Build(ctx, dpShard, rc.seed)
			return err
		})
		return net, err
	}
}

func newDP(rc runCtx, parent int64) (*dpInstance, error) {
	pool := hostpool.New(rc.workers)
	d := &dpInstance{}
	var hooks []parallel.InputPipeline
	for s := 0; s < dpReplicas; s++ {
		p, err := models.NewInputPipe("CIFAR10", dpShard, shardSeed(rc.seed, s), models.PipeConfig{Pool: pool})
		if err != nil {
			return nil, err
		}
		d.pipes = append(d.pipes, p)
		hooks = append(hooks, p)
	}
	err := rc.tr.do("parallel.NewTrainer", parent, 0, func(id int64) error {
		var err error
		d.tr, err = parallel.NewTrainer(simgpu.NewMachine(simgpu.TeslaP100, simgpu.TeslaP100), dpBuild(rc, id), parallel.Config{
			Solver:   dnn.CIFAR10QuickSolver(),
			Bus:      parallel.PCIe3,
			UseGLP:   true,
			Compute:  true,
			Seed:     rc.seed,
			HostPool: pool,
			Prefetch: hooks,
		})
		return err
	})
	if err != nil {
		for _, p := range d.pipes {
			p.Close()
		}
		return nil, err
	}
	for _, dev := range d.tr.Devices() {
		c := &stepCapture{}
		d.caps = append(d.caps, c)
		d.lst = append(d.lst, dev.Subscribe(c.listen))
	}
	return d, nil
}

func (d *dpInstance) step(rc runCtx, parent, req int64) (res parallel.StepResult, err error) {
	err = rc.tr.do("parallel.Trainer.Step", parent, req, func(id int64) error {
		res, err = d.tr.Step(func(s int, net *dnn.Net) error {
			return rc.tr.do("data.InputPipe.Feed", id, req, func(int64) error { return d.pipes[s].Feed(net) })
		})
		return err
	})
	return res, err
}

// recoveries sums the runtime recovery actions over the replicas' ledgers.
func (d *dpInstance) recoveries() int64 {
	var n int64
	for _, dev := range d.tr.Devices() {
		n += d.tr.Framework().Runtime(dev).Ledger().Snapshot().Recoveries()
	}
	return n
}

// snapshotParams copies every replica's parameters.
func snapshotParams(tr *parallel.Trainer) [][][]float32 {
	out := make([][][]float32, tr.Replicas())
	for i := range out {
		for _, p := range tr.Net(i).Params() {
			out[i] = append(out[i], append([]float32(nil), p.Data.Data()...))
		}
	}
	return out
}

// sameBits reports the first parameter whose bits differ, or "".
func sameBits(a, b [][]float32) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d parameter blobs", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Sprintf("blob %d: %d vs %d elements", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return fmt.Sprintf("blob %d element %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return ""
}

func runTrainDP(rc runCtx) (*result, error) {
	res := newResult()
	res.convs = models.Rows("CIFAR10")

	// Set-up, timed several times; the last instance is measured.
	var setups []float64
	var d *dpInstance
	for i, spent := 0, 0.0; rc.moreSetups(i, spent); i++ {
		if d != nil {
			d.close()
			release()
		}
		t0 := time.Now()
		sid := rc.tr.begin("bench.setup", 0, 0)
		var err error
		if d, err = newDP(rc, sid); err != nil {
			return nil, err
		}
		for k := 0; k < dpWarmSteps; k++ {
			if _, err := d.step(rc, sid, 0); err != nil {
				d.close()
				return nil, err
			}
		}
		rc.tr.end(sid)
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	defer d.close()
	rt := d.tr.Framework().Runtime(d.tr.Devices()[0])
	before := rt.Ledger().Snapshot()
	setupRecoveries := d.recoveries()

	// Timed phase: one closed-loop caller stepping for rc.seconds, with a
	// durable checkpoint every dpCkptEvery steps.
	ckpt := filepath.Join(rc.dir, "train.glpc")
	var opMs, iterV, compV, exposedV, overlapV, ckptMs []float64
	var refSnap [][][]float32
	for _, c := range d.caps {
		c.armed, c.counting = true, true
	}
	g0 := readGoCounters()
	start := time.Now()
	for n := int64(1); time.Since(start).Seconds() < rc.seconds; n++ {
		t0 := time.Now()
		op := rc.tr.begin("bench.step", 0, n)
		sr, err := d.step(rc, op, n)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", n, err)
		}
		if n == 1 {
			for _, c := range d.caps {
				c.armed = false
			}
		}
		if n == dpRefSteps-dpWarmSteps {
			refSnap = snapshotParams(d.tr)
		}
		if n%dpCkptEvery == 0 {
			c0 := time.Now()
			err := rc.tr.do("parallel.Trainer.WriteCheckpointFile", op, n, func(int64) error { return d.tr.WriteCheckpointFile(ckpt) })
			if err != nil {
				return nil, err
			}
			ckptMs = append(ckptMs, ms(time.Since(c0)))
		}
		rc.tr.end(op)
		opMs = append(opMs, ms(time.Since(t0)))
		iterV = append(iterV, ms(sr.IterTime))
		compV = append(compV, ms(sr.ComputeTime))
		exposedV = append(exposedV, ms(sr.CommTime))
		overlapV = append(overlapV, ms(sr.OverlappedComm))
	}
	g1 := readGoCounters()
	steps := len(opMs)
	for _, c := range d.caps {
		c.counting = false
	}
	res.e2e["mem_mb"] = measure{liveHeapMB(), 1}
	if refSnap == nil {
		return nil, fmt.Errorf("timed phase of %.1fs ran %d steps; the output check needs %d", rc.seconds, steps, dpRefSteps-dpWarmSteps)
	}

	// Output checks: the replicas agree, every steady step has one virtual
	// time, and the trained parameters are bitwise those of the reference
	// arm (inline feeders, no host pool, blocking all-reduce).
	final := snapshotParams(d.tr)
	res.check(sameBits(final[0], final[1]) == "", "replicas diverged: %s", sameBits(final[0], final[1]))
	for i, v := range iterV {
		res.check(v == iterV[0], "step %d virtual time %v ms differs from step 1's %v ms", i+1, v, iterV[0])
	}
	ref, err := referenceDP(rc)
	if err != nil {
		return nil, err
	}
	for i := range ref {
		res.check(sameBits(refSnap[i], ref[i]) == "", "replica %d after %d steps differs from the reference arm: %s",
			i, dpRefSteps, sameBits(refSnap[i], ref[i]))
	}
	serial, err := serialDP(rc)
	if err != nil {
		return nil, err
	}

	// End-to-end metrics.
	step := median(iterV)
	res.e2e["setup_s"] = measure{median(setups), len(setups)}
	res.e2e["step_virtual_ms"] = measure{step, steps}
	res.e2e["speedup_virtual"] = measure{serial / step, 1}
	var fwd time.Duration
	for _, c := range d.caps {
		fwd = max(fwd, forwardEnd(c.recs))
	}
	res.e2e["fwd_virtual_ms"] = measure{ms(fwd), 1}
	closedLoop(res, opMs, dpCkptEvery, dpReplicas*dpShard)
	res.attempted = steps
	retried := int64(d.tr.Rollbacks()) + d.recoveries() - setupRecoveries
	res.e2e["ok_rate"] = measure{1 - float64(retried)/float64(steps), steps}

	// Simulated numbers tracing must not change.
	res.sim["step_virtual_ms"] = step
	res.sim["fwd_virtual_ms"] = ms(fwd)
	res.sim["kernels_per_step replica 0"] = float64(len(d.caps[0].recs))
	for k, v := range planWidths(res, rt.Plans()) {
		res.sim[k] = v
	}

	// Per-layer metrics.
	res.steady = d.caps[0].recs
	layerVirtual(res, res.steady)
	ledgerLayers(res, before, rt.Ledger().Snapshot(), steps)
	var kernels int64
	for _, c := range d.caps {
		kernels += c.count
	}
	res.layer["simgpu.kernels_per_step"] = float64(kernels) / float64(steps)
	res.layer["parallel.compute_virtual_ms"] = median(compV)
	res.layer["parallel.exposed_comm_virtual_ms"] = median(exposedV)
	res.layer["parallel.overlapped_comm_virtual_ms"] = median(overlapV)
	res.layer["parallel.buckets_per_step"] = d.tr.CommStats().BucketsPerStep
	res.layer["parallel.checkpoint_ms"] = median(ckptMs)
	if fi, err := os.Stat(ckpt); err == nil {
		res.layer["parallel.checkpoint_bytes"] = float64(fi.Size())
	}
	res.layer["parallel.rollbacks"] = float64(d.tr.Rollbacks())
	for _, p := range d.pipes {
		st := p.Stats()
		res.layer["data.prefetch_hits"] += float64(st.Hits)
		res.layer["data.prefetch_stalls"] += float64(st.Stalls)
	}
	res.layer["go.allocs_per_step"], res.layer["go.gc_cpu_pct"] = goDelta(g0, g1, steps)
	if rc.tr != nil {
		spans := rc.tr.closed()
		self := selfTimes(spans)
		var stepSelf []float64
		for _, s := range spans {
			if s.name == "parallel.Trainer.Step" && s.req > 0 {
				stepSelf = append(stepSelf, ms(self[s.id]))
			}
		}
		res.layer["parallel.step_wall_ms"] = median(stepSelf)
		res.layer["data.feed_ms"] = median(durations(spans, "data.InputPipe.Feed"))
		res.layer["models.build_ms"] = median(durations(spans, "models.Workload.Build"))
	}
	return res, nil
}

// referenceDP trains dpRefSteps steps on the reference arm and returns each
// replica's parameters.
func referenceDP(rc runCtx) ([][][]float32, error) {
	rc.tr = nil
	tr, err := parallel.NewTrainer(simgpu.NewMachine(simgpu.TeslaP100, simgpu.TeslaP100), dpBuild(rc, 0), parallel.Config{
		Solver:            dnn.CIFAR10QuickSolver(),
		Bus:               parallel.PCIe3,
		UseGLP:            true,
		Compute:           true,
		Seed:              rc.seed,
		BlockingAllReduce: true,
	})
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	w := models.Workloads["CIFAR10"]
	feeders := make([]models.Feeder, dpReplicas)
	for s := range feeders {
		feeders[s] = w.NewFeeder(dpShard, shardSeed(rc.seed, s))
	}
	for k := 0; k < dpRefSteps; k++ {
		if _, err := tr.Step(func(s int, net *dnn.Net) error { return feeders[s](net) }); err != nil {
			return nil, fmt.Errorf("reference arm step %d: %w", k+1, err)
		}
	}
	return snapshotParams(tr), nil
}

// serialDP is the serial-launcher arm's steady step time in virtual ms. It
// runs timing-only: the virtual clock does not depend on the host math.
func serialDP(rc runCtx) (float64, error) {
	rc.tr = nil
	tr, err := parallel.NewTrainer(simgpu.NewMachine(simgpu.TeslaP100, simgpu.TeslaP100), dpBuild(rc, 0), parallel.Config{
		Solver: dnn.CIFAR10QuickSolver(),
		Bus:    parallel.PCIe3,
		Seed:   rc.seed,
	})
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	var last parallel.StepResult
	for k := 0; k < 3; k++ {
		if last, err = tr.Step(nil); err != nil {
			return 0, fmt.Errorf("serial arm: %w", err)
		}
	}
	return ms(last.IterTime), nil
}

// windowRate is n operations' samples per wall second, the median over
// consecutive windows of `window` operations (on train-dp each window holds
// one checkpoint, so the rate includes its cost).
func windowRate(opMs []float64, window, samplesPerOp int) measure {
	var rates []float64
	for i := 0; i+window <= len(opMs); i += window {
		var sum float64
		for _, v := range opMs[i : i+window] {
			sum += v
		}
		rates = append(rates, rate(float64(window*samplesPerOp), sum/1e3))
	}
	return measure{median(rates), len(rates)}
}

// closedLoop fills the throughput and latency metrics of a closed-loop
// workload. One caller runs at one load, so .low and .high both describe
// it, and slo_rps is the step rate it sustains.
func closedLoop(res *result, opMs []float64, window, samplesPerOp int) {
	p50 := measure{quantile(opMs, 0.5), len(opMs)}
	p99 := measure{tail(opMs), len(opMs)}
	res.e2e["p50_ms.low"], res.e2e["p50_ms.high"] = p50, p50
	res.e2e["p99_ms.low"], res.e2e["p99_ms.high"] = p99, p99
	res.e2e["samples_per_s"] = windowRate(opMs, window, samplesPerOp)
	res.e2e["slo_rps"] = windowRate(opMs, window, 1)
}
