package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// sim-caffenet: timing-only CaffeNet (compute off) at the paper's batch of
// 256 on one simulated P100 through GLP4NN, with a short serial-launcher
// arm as the baseline. No host math runs, so host time is the simulator
// and the runtime's bookkeeping. One closed-loop caller.
const (
	simBatch     = 256
	simWarmSteps = 2 // profiling window + analysis, part of set-up
)

type simInstance struct {
	dev    *simgpu.Device
	fw     *core.Framework
	rt     *core.Runtime
	net    *dnn.Net
	solver *dnn.Solver
	cap    *stepCapture
	lst    int
}

func (s *simInstance) close() {
	s.dev.Unsubscribe(s.lst)
	s.fw.Close()
}

func newSim(rc runCtx, parent int64) (*simInstance, error) {
	s := &simInstance{dev: simgpu.NewDevice(simgpu.TeslaP100), cap: &stepCapture{}}
	err := rc.tr.do("core.New", parent, 0, func(int64) error {
		s.fw = core.New()
		s.rt = s.fw.Runtime(s.dev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ctx := dnn.NewContext(s.rt, rc.seed)
	ctx.Compute = false
	err = rc.tr.do("models.Workload.Build", parent, 0, func(int64) error {
		var err error
		s.net, err = models.Workloads["CaffeNet"].Build(ctx, simBatch, rc.seed)
		return err
	})
	if err != nil {
		s.fw.Close()
		return nil, err
	}
	s.solver = dnn.NewSolver(s.net, ctx, dnn.CIFAR10QuickSolver())
	s.lst = s.dev.Subscribe(s.cap.listen)
	return s, nil
}

// stepVirtual runs one solver step from a reset clock and returns its
// virtual time: the device clock or the host dispatch timeline, whichever
// ends later.
func stepVirtual(tr *tracer, dev *simgpu.Device, solver *dnn.Solver, parent, req int64) (time.Duration, error) {
	if err := dev.ResetClocks(); err != nil {
		return 0, err
	}
	err := tr.do("dnn.Solver.Step", parent, req, func(int64) error {
		_, err := solver.Step()
		return err
	})
	if err != nil {
		return 0, err
	}
	d, err := tr.timeSync(dev, parent, req)
	if err != nil {
		return 0, err
	}
	return max(d, dev.HostTime()), nil
}

// timeSync is dev.Synchronize inside a span.
func (t *tracer) timeSync(dev *simgpu.Device, parent, req int64) (d time.Duration, err error) {
	err = t.do("simgpu.Device.Synchronize", parent, req, func(int64) error {
		d, err = dev.Synchronize()
		return err
	})
	return d, err
}

func runSimCaffeNet(rc runCtx) (*result, error) {
	// One CaffeNet instance holds about 4.4 GB of blobs; the default GOGC
	// would let garbage grow the process by as much again.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	res := newResult()
	res.convs = models.Rows("CaffeNet")

	var setups []float64
	var s *simInstance
	var widths []map[string]float64
	for i, spent := 0, 0.0; rc.moreSetups(i, spent); i++ {
		if s != nil {
			s.close()
			s = nil
			release()
		}
		t0 := time.Now()
		sid := rc.tr.begin("bench.setup", 0, 0)
		var err error
		if s, err = newSim(rc, sid); err != nil {
			return nil, err
		}
		for k := 0; k < simWarmSteps; k++ {
			if _, err := stepVirtual(rc.tr, s.dev, s.solver, sid, 0); err != nil {
				s.close()
				return nil, err
			}
		}
		rc.tr.end(sid)
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
		widths = append(widths, planWidths(res, s.rt.Plans()))
	}
	defer s.close()
	// Plan widths must repeat exactly from one set-up to the next.
	for i := 1; i < len(widths); i++ {
		for k, v := range widths[0] {
			res.check(widths[i][k] == v, "set-up %d planned %s = %v, set-up 1 planned %v", i+1, k, widths[i][k], v)
		}
		res.check(len(widths[i]) == len(widths[0]), "set-up %d planned %d layers, set-up 1 planned %d", i+1, len(widths[i]), len(widths[0]))
	}
	before := s.rt.Ledger().Snapshot()

	var opMs, stepV []float64
	s.cap.armed, s.cap.counting = true, true
	g0 := readGoCounters()
	start := time.Now()
	for n := int64(1); time.Since(start).Seconds() < rc.seconds; n++ {
		t0 := time.Now()
		op := rc.tr.begin("bench.step", 0, n)
		v, err := stepVirtual(rc.tr, s.dev, s.solver, op, n)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", n, err)
		}
		rc.tr.end(op)
		s.cap.armed = false
		opMs = append(opMs, ms(time.Since(t0)))
		stepV = append(stepV, ms(v))
	}
	g1 := readGoCounters()
	s.cap.counting = false
	steps := len(opMs)
	res.e2e["mem_mb"] = measure{liveHeapMB(), 1}
	for i, v := range stepV {
		res.check(v == stepV[0], "step %d virtual time %v ms differs from step 1's %v ms", i+1, v, stepV[0])
	}

	// Serial-launcher arm on a fresh device, same net.
	sdev := simgpu.NewDevice(simgpu.TeslaP100)
	sctx := dnn.NewContext(dnn.SerialLauncher{Dev: sdev}, rc.seed)
	sctx.Compute = false
	serialSolver := dnn.NewSolver(s.net, sctx, dnn.CIFAR10QuickSolver())
	var serial time.Duration
	for k := 0; k < 2; k++ {
		var err error
		if serial, err = stepVirtual(nil, sdev, serialSolver, 0, 0); err != nil {
			return nil, fmt.Errorf("serial arm: %w", err)
		}
	}

	step := median(stepV)
	fwd := ms(forwardEnd(s.cap.recs))
	res.e2e["setup_s"] = measure{median(setups), len(setups)}
	res.e2e["step_virtual_ms"] = measure{step, steps}
	res.e2e["speedup_virtual"] = measure{ms(serial) / step, 1}
	res.e2e["fwd_virtual_ms"] = measure{fwd, 1}
	closedLoop(res, opMs, 1, simBatch)
	res.attempted = steps
	after := s.rt.Ledger().Snapshot()
	res.e2e["ok_rate"] = measure{1 - float64(after.Recoveries()-before.Recoveries())/float64(steps), steps}

	res.sim["step_virtual_ms"] = step
	res.sim["fwd_virtual_ms"] = fwd
	res.sim["kernels_per_step"] = float64(len(s.cap.recs))
	for k, v := range widths[len(widths)-1] {
		res.sim[k] = v
	}

	res.steady = s.cap.recs
	layerVirtual(res, res.steady)
	ledgerLayers(res, before, after, steps)
	res.layer["simgpu.kernels_per_step"] = float64(s.cap.count) / float64(steps)
	res.layer["go.allocs_per_step"], res.layer["go.gc_cpu_pct"] = goDelta(g0, g1, steps)
	if rc.tr != nil {
		spans := rc.tr.closed()
		var stepMs []float64
		for _, sp := range spans {
			if sp.name == "dnn.Solver.Step" && sp.req > 0 {
				stepMs = append(stepMs, ms(sp.dur()))
			}
		}
		res.layer["dnn.step_wall_ms"] = median(stepMs)
		res.layer["models.build_ms"] = median(durations(spans, "models.Workload.Build"))
	}
	return res, nil
}
