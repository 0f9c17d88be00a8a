// Command perfbench is the repository benchmark. It runs one workload,
// measures it on both clocks (the simulated device's virtual clock and the
// host wall clock), checks the program's outputs, and prints every metric
// by name with its unit and sample count. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload train-dp-cifar10 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then traced, each for half the time; it reports the
// per-layer metrics from the traced half, the tracing overhead (traced
// minus untraced) of every end-to-end metric, fails if tracing changed any
// simulated number, and writes the spans as a Chrome/Perfetto trace.
// Spans are recorded only around the benchmark's own calls into the
// repository's public functions; nothing inside the program is
// instrumented. METRICS.md documents every workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/models"
	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// runCtx is what a workload gets for one measured instance.
type runCtx struct {
	seed    int64
	seconds float64 // length of the timed phase
	setups  int     // least number of set-ups to time; the timed phase runs on the last
	tr      *tracer // nil for an untraced instance
	dir     string  // scratch directory (checkpoints)
	workers int     // host-pool workers
}

// setupBudget is how long a run keeps timing further set-ups once it has
// timed rc.setups of them, so a cheap set-up is timed more often; at most
// maxSetups are timed.
const (
	setupBudget = time.Second
	maxSetups   = 25
)

// moreSetups reports whether to time another set-up after n of them took
// spent seconds in all.
func (rc runCtx) moreSetups(n int, spent float64) bool {
	return n < rc.setups || (n < maxSetups && spent < setupBudget.Seconds())
}

// measure is one end-to-end value and the number of samples behind it.
type measure struct {
	value   float64
	samples int
}

// result is what one workload instance measured.
type result struct {
	e2e       map[string]measure
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string           // failed output checks
	sim       map[string]float64 // simulated numbers tracing must not change
	steady    []simgpu.KernelRecord
	convs     []models.LayerRow // the workload's conv geometries
}

func newResult() *result {
	return &result{e2e: map[string]measure{}, layer: map[string]float64{}, sim: map[string]float64{}}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workload runs one measured instance.
type workload func(rc runCtx) (*result, error)

var workloads = map[string]workload{
	"train-dp-cifar10": runTrainDP,
	"sim-caffenet":     runSimCaffeNet,
	"serve-cifar10":    runServe,
}

// order is the order `--workload all` runs the workloads in.
var order = []string{"train-dp-cifar10", "sim-caffenet", "serve-cifar10"}

func main() {
	name := flag.String("workload", "", "workload to run: train-dp-cifar10, sim-caffenet, serve-cifar10, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for checkpoints and trace files")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = order
	}
	if _, known := workloads[names[0]]; !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload train-dp-cifar10|sim-caffenet|serve-cifar10|all, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	failed := false
	for _, n := range names {
		ok, err := run(os.Stdout, n, workloads[n], *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		failed = failed || !ok
		release()
	}
	if failed {
		os.Exit(1)
	}
}

// run measures the workload and prints the result; it reports whether every
// output check passed.
func run(stdout io.Writer, name string, w workload, seed int64, seconds float64, traced bool, out string) (bool, error) {
	dir, err := os.MkdirTemp(mkdirAll(out), "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	rc := runCtx{seed: seed, seconds: seconds, setups: 3, dir: dir, workers: runtime.NumCPU()}

	envBlock(stdout, name, rc, traced)
	var res *result
	metrics := map[string]map[string]any{}
	if !traced {
		if res, err = w(rc); err != nil {
			return false, err
		}
		ok := res.e2e["ok_rate"]
		res.e2e["error_rate"] = measure{1 - ok.value, ok.samples}
		for _, m := range endToEnd {
			v := res.e2e[m.name]
			fmt.Fprintf(stdout, "%s %s = %.6g %s (n=%d)\n", name, m.name, v.value, m.unit, v.samples)
			metrics[m.name] = map[string]any{"value": v.value, "unit": m.unit}
		}
		for _, m := range ungated {
			v := res.e2e[m.name]
			fmt.Fprintf(stdout, "%s %s = %.6g %s (n=%d, not gated)\n", name, m.name, v.value, m.unit, v.samples)
		}
	} else {
		res, err = runTraced(stdout, name, w, rc, out)
		if err != nil {
			return false, err
		}
		for _, m := range perLayer {
			v := res.layer[m.name]
			fmt.Fprintf(stdout, "%s %s = %.6g %s\n", name, m.name, v, m.unit)
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	correct := len(res.problems) == 0
	fmt.Fprintf(stdout, "checks: %s\n", map[bool]string{true: "all outputs correct", false: "FAILED"}[correct])
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return correct, nil
}

// runTraced runs an untraced and a traced instance of half the length each
// and derives the per-layer metrics from the traced one.
func runTraced(stdout io.Writer, name string, w workload, rc runCtx, out string) (*result, error) {
	rc.seconds /= 2
	rc.setups = 1
	plain, err := w(rc)
	if err != nil {
		return nil, err
	}
	release()
	rc.tr = newTracer()
	res, err := w(rc)
	if err != nil {
		return nil, err
	}
	res.problems = append(plain.problems, res.problems...)
	res.attempted += plain.attempted
	res.failed += plain.failed

	// Tracing must not change a simulated number.
	keys := make([]string, 0, len(plain.sim))
	for k := range plain.sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a, b := plain.sim[k], res.sim[k]
		res.check(a == b, "tracing changed simulated %s: %v untraced, %v traced", k, a, b)
	}
	for _, m := range endToEnd {
		a, b := plain.e2e[m.name], res.e2e[m.name]
		res.layer["overhead."+m.name] = b.value - a.value
		fmt.Fprintf(stdout, "%s traced %s = %.6g %s (untraced %.6g, n=%d)\n", name, m.name, b.value, m.unit, a.value, b.samples)
	}

	// Outside-in probes for layers the workload reaches only indirectly.
	tensorProbe(rc.tr, res, rc.seed)
	if err := replayProbe(rc.tr, res); err != nil {
		return nil, err
	}

	spans := rc.tr.closed()
	self := selfTimes(spans)
	for _, s := range spans {
		res.layer["trace.self_ms."+s.module()] += ms(self[s.id])
	}
	file := filepath.Join(mkdirAll(out), fmt.Sprintf("trace-%s-seed%d.json", name, rc.seed))
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(writeChrome(f, spans), f.Close()); err != nil {
		return nil, fmt.Errorf("writing %s: %w", file, err)
	}
	fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(spans), file)
	return res, nil
}

// release drops the previous instance's memory before the next is built
// (the CaffeNet instance holds several GB).
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first file created there
	return dir
}

// envBlock prints the environment every result is measured in.
func envBlock(w io.Writer, workload string, rc runCtx, traced bool) {
	env := map[string]any{
		"workload":          workload,
		"seed":              rc.seed,
		"seconds":           rc.seconds,
		"traced":            traced,
		"commit":            gitCommit("."),
		"source_sha256":     sourceHash("."),
		"go":                runtime.Version(),
		"goarch":            runtime.GOARCH,
		"isa_detected":      tensor.DetectedISA().String(),
		"isa_active":        tensor.ActiveISA().String(),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"host_pool_workers": rc.workers,
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintf(w, "env %s\n", b)
}

// gitCommit reads HEAD from a .git directory, if there is one.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceHash identifies the measured source when there is no commit: a
// SHA-256 over the paths and contents of every Go source and module file.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
