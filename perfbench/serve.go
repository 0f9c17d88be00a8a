package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/simgpu"
)

// serve-cifar10: frozen CIFAR10 served through the dynamic batcher with
// engine batch 8, the GLP4NN runtime, a host pool of nproc workers and the
// default 2 ms flush. An open loop sends seeded Poisson arrivals at two
// fixed rates and at a ladder of probe rates, and searches for the highest
// rate whose p99 meets the latency limit. Latency is timed from each
// request's due time, so generator stalls count against it.
const (
	serveBatch   = 8
	serveLowRPS  = 50
	serveHighRPS = 150
	serveLimitMs = 100 // p99 limit for slo_rps
	// Shares of the timed phase: at 30 s the low and high rates each get
	// 1,000 requests and the slo_rps search gets the remaining ninth.
	serveLowShare, serveHighShare = 2.0 / 3, 2.0 / 9

	// Every rate runs once in each of serveRounds interleaved rounds.
	serveRounds = 4
)

// serveProbeFractions are the slo_rps probe rates as fractions of the
// engine's capacity.
var serveProbeFractions = []float64{0.7, 0.85, 1.0}

// batchTimes is a serve.Observer that passes every event on to the
// runtime's ledger and keeps each batch's flush-to-done latency, so the
// benchmark reads the engine's service time from outside the server.
type batchTimes struct {
	serve.Observer
	mu  sync.Mutex
	lat []float64 // ms
}

func (b *batchTimes) ServeBatch(size int, lat time.Duration) {
	b.Observer.ServeBatch(size, lat)
	b.mu.Lock()
	b.lat = append(b.lat, ms(lat))
	b.mu.Unlock()
}

// capacity is the engine's throughput at full batches and the number of
// batches it is measured from: every flush runs the padded batch of
// serveBatch rows, so it is serveBatch samples per median batch latency.
func (b *batchTimes) capacity() measure {
	b.mu.Lock()
	defer b.mu.Unlock()
	return measure{rate(serveBatch, median(b.lat)/1e3), len(b.lat)}
}

type serveInstance struct {
	dev  *simgpu.Device
	fw   *core.Framework
	rt   *core.Runtime
	fz   *dnn.FrozenNet
	srv  *serve.Server
	cap  *stepCapture
	lst  int
	obs  *batchTimes
	row  int           // elements per request sample
	fwdV time.Duration // one steady engine-batch forward, incl. staging
}

func (s *serveInstance) close() {
	s.srv.Close()
	s.dev.Unsubscribe(s.lst)
	s.fw.Close()
}

// buildFrozen builds CIFAR10 at the engine batch and freezes it.
func buildFrozen(rc runCtx, ctx *dnn.Context, parent int64) (fz *dnn.FrozenNet, err error) {
	var net *dnn.Net
	err = rc.tr.do("models.Workload.Build", parent, 0, func(int64) error {
		net, err = models.Workloads["CIFAR10"].Build(ctx, serveBatch, rc.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rc.tr.do("dnn.Freeze", parent, 0, func(int64) error {
		fz, err = dnn.Freeze(net)
		return err
	})
	if err != nil {
		return nil, err
	}
	fz.Compact()
	return fz, nil
}

// forwardVirtual runs one staged frozen forward from a reset clock and
// returns its virtual time.
func forwardVirtual(dev *simgpu.Device, fz *dnn.FrozenNet, ctx *dnn.Context) (time.Duration, error) {
	if err := dev.ResetClocks(); err != nil {
		return 0, err
	}
	if err := fz.StageInputs(ctx); err != nil {
		return 0, err
	}
	if err := fz.Forward(ctx); err != nil {
		return 0, err
	}
	d, err := dev.Synchronize()
	if err != nil {
		return 0, err
	}
	return max(d, dev.HostTime()), nil
}

func newServe(rc runCtx, parent int64) (*serveInstance, error) {
	// The server never resets the device clock, so retained kernel records
	// would grow with every batch; as in glp4nn-serve, keep none (the
	// capture listener sees every record regardless).
	s := &serveInstance{dev: simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithTraceLimit(1)), cap: &stepCapture{}}
	_ = rc.tr.do("core.New", parent, 0, func(int64) error {
		s.fw = core.New()
		s.rt = s.fw.Runtime(s.dev)
		return nil
	})
	s.lst = s.dev.Subscribe(s.cap.listen)
	fail := func(err error) (*serveInstance, error) {
		s.dev.Unsubscribe(s.lst)
		s.fw.Close()
		return nil, err
	}
	ctx := dnn.NewParallelContext(s.rt, rc.seed, hostpool.New(rc.workers))
	var err error
	if s.fz, err = buildFrozen(rc, ctx, parent); err != nil {
		return fail(err)
	}
	// Profiling window and analysis, then one steady forward whose kernels
	// are kept for the per-layer view.
	for k := 0; k < 2; k++ {
		if _, err := forwardVirtual(s.dev, s.fz, ctx); err != nil {
			return fail(err)
		}
	}
	s.cap.armed = true
	s.fwdV, err = forwardVirtual(s.dev, s.fz, ctx)
	s.cap.armed = false
	if err != nil {
		return fail(err)
	}
	s.obs = &batchTimes{Observer: s.rt.Ledger()}
	s.srv, err = serve.New(s.fz, ctx, serve.Config{
		MaxBatch: serveBatch,
		Queue:    1 << 14, // deep enough that no request of the workload is shed
		Observer: s.obs,
		Budget:   s.rt.Budget(),
	})
	if err != nil {
		return fail(err)
	}
	s.row = s.srv.RowSizes()[0]
	return s, nil
}

// phase is one run of requests.
type phase struct {
	lat, late []float64 // ms from due time to answer; ms the send was late
	failed    int
	answers   map[int][][]float32 // request id → output rows
}

func newPhase() *phase { return &phase{answers: map[int][][]float32{}} }

// merge adds another run's samples to p.
func (p *phase) merge(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	p.failed += q.failed
	for id, a := range q.answers {
		p.answers[id] = a
	}
}

// predict sends request id and records its answer and its latency from due.
func (s *serveInstance) predict(rc runCtx, ph *phase, mu *sync.Mutex, parent int64, id int, sample []float32, due time.Time) {
	var out [][]float32
	err := rc.tr.do("serve.Server.PredictContext", parent, int64(id), func(int64) error {
		var err error
		out, err = s.srv.PredictContext(context.Background(), sample)
		return err
	})
	lat := ms(time.Since(due))
	mu.Lock()
	defer mu.Unlock()
	ph.lat = append(ph.lat, lat)
	if err != nil {
		ph.failed++
		return
	}
	ph.answers[id] = out
}

// openLoop sends n requests, ids first..first+n-1, with seeded Poisson
// arrivals at rps and waits for every answer. Samples are generated before
// the first request is due.
func (s *serveInstance) openLoop(rc runCtx, gen *serve.LoadGen, name string, rps float64, n, first int) *phase {
	samples := make([][]float32, n)
	for i := range samples {
		samples[i] = gen.Sample(first+i, 0, s.row)
	}
	rng := rand.New(rand.NewSource(rc.seed*7919 + int64(first)))
	ph := newPhase()
	root := rc.tr.begin("bench.phase."+name, 0, 0)
	defer rc.tr.end(root)
	var wg sync.WaitGroup
	var mu sync.Mutex
	due := time.Now()
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rps * 1e9))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.late = append(ph.late, ms(time.Since(due)))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			s.predict(rc, ph, &mu, root, first+i, samples[i], due)
		}(i, due)
	}
	wg.Wait()
	return ph
}

func runServe(rc runCtx) (*result, error) {
	res := newResult()
	res.convs = models.Rows("CIFAR10")

	var setups []float64
	var s *serveInstance
	for i, spent := 0, 0.0; rc.moreSetups(i, spent); i++ {
		if s != nil {
			s.close()
			release()
		}
		t0 := time.Now()
		sid := rc.tr.begin("bench.setup", 0, 0)
		var err error
		if s, err = newServe(rc, sid); err != nil {
			return nil, err
		}
		rc.tr.end(sid)
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	defer s.close()
	widths := planWidths(res, s.rt.Plans())
	before := s.rt.Ledger().Snapshot()

	// The fixed rates and the slo_rps probes run interleaved in rounds, so
	// each averages over the whole timed phase rather than one stretch of
	// it, and a slow stretch of the host hits them alike. The probes send
	// open-loop rates at fixed fractions of the engine's capacity, read from
	// the batches of the first round. A probe rate's p99 is the median of
	// its per-round p99s: a host stall of a few tens of milliseconds fails
	// the round it lands in, and only a backlog that every round shows
	// fails the rate. The search interpolates where p99 crosses the limit.
	gen := serve.NewLoadGen(rc.seed, time.Millisecond)
	nLow := int(math.Round(serveLowRPS * rc.seconds * serveLowShare / serveRounds))
	nHigh := int(math.Round(serveHighRPS * rc.seconds * serveHighShare / serveRounds))
	probeSec := rc.seconds * (1 - serveLowShare - serveHighShare) / float64(len(serveProbeFractions)*serveRounds)
	low, high, all := newPhase(), newPhase(), newPhase()
	var probeRPS []float64
	probeP99 := make([][]float64, len(serveProbeFractions)) // one per round
	probeN := make([]int, len(serveProbeFractions))
	first := 0
	send := func(name string, rps float64, n int) *phase {
		run := s.openLoop(rc, gen, name, rps, n, first)
		all.merge(run)
		first += n
		return run
	}
	g0 := readGoCounters()
	for round := 0; round < serveRounds; round++ {
		low.merge(send("low", serveLowRPS, nLow))
		high.merge(send("high", serveHighRPS, nHigh))
		if probeRPS == nil {
			c := s.obs.capacity().value
			for _, f := range serveProbeFractions {
				probeRPS = append(probeRPS, f*c)
			}
		}
		for i, r := range probeRPS {
			run := send(fmt.Sprintf("probe%d", i+1), r, int(math.Round(r*probeSec)))
			probeP99[i] = append(probeP99[i], run.point(r).p99)
			probeN[i] += len(run.lat)
		}
	}
	capacity := s.obs.capacity()
	points := []point{low.point(serveLowRPS), high.point(serveHighRPS)}
	for i, r := range probeRPS {
		pt := point{r, median(probeP99[i]), probeN[i]}
		points = append(points, pt)
		fmt.Printf("serve-cifar10 probe %.0f%% of capacity: %.1f req/s, p99 %.2f ms (n=%d)\n", 100*serveProbeFractions[i], r, pt.p99, pt.n)
	}
	slo := sloRate(points, serveLimitMs)
	g1 := readGoCounters()
	st := s.srv.Stats()
	after := s.rt.Ledger().Snapshot()
	res.e2e["mem_mb"] = measure{liveHeapMB(), 1}

	// Output check: every answer is bitwise the frozen net's direct forward
	// of its sample, computed on a separate frozen engine.
	mismatch, err := checkAnswers(rc, gen, s.row, all.answers)
	if err != nil {
		return nil, err
	}
	res.check(mismatch == "", "%s", mismatch)

	// Serial-launcher arm: the same frozen forward, timing-only.
	sdev := simgpu.NewDevice(simgpu.TeslaP100)
	sctx := dnn.NewContext(dnn.SerialLauncher{Dev: sdev}, rc.seed)
	sctx.Compute = false
	rc0 := rc
	rc0.tr = nil
	sfz, err := buildFrozen(rc0, sctx, 0)
	if err != nil {
		return nil, err
	}
	serial, err := forwardVirtual(sdev, sfz, sctx)
	if err != nil {
		return nil, err
	}

	fwd := ms(s.fwdV)
	meanBatch := float64(st.Samples) / float64(max(st.Batches, 1))
	res.e2e["setup_s"] = measure{median(setups), len(setups)}
	res.e2e["step_virtual_ms"] = measure{fwd, 1}
	res.e2e["fwd_virtual_ms"] = measure{fwd, 1}
	res.e2e["speedup_virtual"] = measure{ms(serial) / fwd, 1}
	res.e2e["samples_per_s"] = capacity
	res.e2e["p50_ms.low"] = measure{quantile(low.lat, 0.5), len(low.lat)}
	res.e2e["p50_ms.high"] = measure{quantile(high.lat, 0.5), len(high.lat)}
	res.e2e["p99_ms.low"] = measure{tail(low.lat), len(low.lat)}
	res.e2e["p99_ms.high"] = measure{tail(high.lat), len(high.lat)}
	attempted := len(all.lat)
	res.e2e["slo_rps"] = measure{slo, attempted - len(low.lat) - len(high.lat)}
	res.attempted = attempted
	res.failed = all.failed
	bad := all.failed + int(st.Shed+st.Retries)
	res.e2e["ok_rate"] = measure{1 - float64(bad)/float64(attempted), attempted}

	res.sim["fwd_virtual_ms"] = fwd
	res.sim["kernels_per_batch"] = float64(len(s.cap.recs))
	for k, v := range widths {
		res.sim[k] = v
	}

	res.steady = s.cap.recs
	layerVirtual(res, res.steady)
	ledgerLayers(res, before, after, int(st.Batches))
	res.layer["simgpu.kernels_per_step"] = float64(len(s.cap.recs))
	res.layer["serve.mean_batch"] = meanBatch
	res.layer["serve.batch_p50_ms"] = ms(st.BatchP50)
	res.layer["serve.batch_p99_ms"] = ms(st.BatchP99)
	res.layer["serve.req_p50_ms"] = ms(st.ReqP50)
	res.layer["serve.req_p99_ms"] = ms(st.ReqP99)
	res.layer["serve.shed"] = float64(st.Shed)
	res.layer["serve.retries"] = float64(st.Retries)
	res.layer["serve.gen_late_ms"] = quantile(all.late, 0.99)
	res.layer["serve.p99_ms.low"] = res.e2e["p99_ms.low"].value
	res.layer["serve.p99_ms.high"] = res.e2e["p99_ms.high"].value
	res.layer["go.allocs_per_step"], res.layer["go.gc_cpu_pct"] = goDelta(g0, g1, attempted)
	if rc.tr != nil {
		spans := rc.tr.closed()
		res.layer["models.build_ms"] = median(durations(spans, "models.Workload.Build"))
		res.layer["dnn.freeze_ms"] = median(durations(spans, "dnn.Freeze"))
	}
	return res, nil
}

// point is one load level of the slo_rps search: the offered rate, the p99
// latency it gave and the number of requests behind it.
type point struct {
	rps, p99 float64
	n        int
}

// point is the phase as a point of the slo_rps search at rate rps. A
// failed request misses any latency limit, so a phase with one reads as an
// infinite p99.
func (p *phase) point(rps float64) point {
	p99 := quantile(p.lat, 0.99)
	if p.failed > 0 {
		p99 = math.Inf(1)
	}
	return point{rps, p99, len(p.lat)}
}

// sloRate is the highest rate whose p99 meets limit. The p99 of a short
// probe is noisy and need not grow with the rate, so the search fits the
// least-squares non-decreasing curve to the points (pool adjacent
// violators, weighted by request count) and interpolates linearly where
// the fit crosses the limit. It is 0 if no point meets the limit.
func sloRate(points []point, limit float64) float64 {
	sort.Slice(points, func(i, j int) bool { return points[i].rps < points[j].rps })
	type block struct {
		mean float64
		w    float64
		n    int // points pooled
	}
	var blocks []block
	for _, p := range points {
		blocks = append(blocks, block{p.p99, float64(p.n), 1})
		for k := len(blocks) - 1; k > 0 && blocks[k-1].mean > blocks[k].mean; k-- {
			a, b := blocks[k-1], blocks[k]
			w := a.w + b.w
			blocks[k-1] = block{(a.mean*a.w + b.mean*b.w) / w, w, a.n + b.n}
			blocks = blocks[:k]
		}
	}
	fit := make([]float64, 0, len(points))
	for _, b := range blocks {
		for i := 0; i < b.n; i++ {
			fit = append(fit, b.mean)
		}
	}
	slo := 0.0
	for i, p := range points {
		if fit[i] > limit {
			if i > 0 && !math.IsInf(fit[i], 1) {
				a := points[i-1]
				slo = a.rps + (p.rps-a.rps)*(limit-fit[i-1])/(fit[i]-fit[i-1])
			}
			break
		}
		slo = p.rps
	}
	return slo
}

// checkAnswers recomputes every answered request on a separate frozen
// engine (host launcher, host pool) from its regenerated sample and
// compares bits. Answers do not depend on co-batching, so requests are
// checked a full batch at a time.
func checkAnswers(rc runCtx, gen *serve.LoadGen, row int, answers map[int][][]float32) (string, error) {
	rc.tr = nil
	ctx := dnn.NewParallelContext(dnn.HostLauncher{}, rc.seed, hostpool.New(rc.workers))
	fz, err := buildFrozen(rc, ctx, 0)
	if err != nil {
		return "", err
	}
	in, out := fz.Inputs()[0], fz.Outputs()
	ids := make([]int, 0, len(answers))
	for id := range answers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	buf := make([]float32, serveBatch*row)
	for len(ids) > 0 {
		batch := ids[:min(serveBatch, len(ids))]
		ids = ids[len(batch):]
		for i, id := range batch {
			copy(buf[i*row:], gen.Sample(id, 0, row))
		}
		if err := fz.SetInput(in, buf); err != nil {
			return "", err
		}
		if err := fz.Forward(ctx); err != nil {
			return "", err
		}
		for oi, name := range out {
			want, err := fz.Output(name)
			if err != nil {
				return "", err
			}
			rowOut := len(want) / serveBatch
			for i, id := range batch {
				got := answers[id][oi]
				for j, v := range want[i*rowOut : (i+1)*rowOut] {
					if math.Float32bits(v) != math.Float32bits(got[j]) {
						return fmt.Sprintf("request %d output %s[%d] = %v, direct forward gives %v", id, name, j, got[j], v), nil
					}
				}
			}
		}
	}
	return "", nil
}
