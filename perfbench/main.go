// Command perfbench is the dcSR end-to-end benchmark. Every run walks
// the three paths dcSR's users pay for, against the system's public
// layers: the content provider prepares a set of titles (core.Prepare),
// a viewer streams them one session at a time over loopback TCP (play),
// and an origin answers concurrent fetch sessions for them (serve). The
// workload picks the content: news or gaming titles, half of them
// shipped as float32 full models and half with -int8 -delta. Every output
// is checked, and each metric is printed by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With -trace 1 the Prepares are traced, the play and serve
// phases measure an untraced and a traced half, and the run reports the
// per-layer metrics drawn from the traced spans and counters.
// README.md in this directory lists every metric and the end-to-end
// metric each layer metric should move.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload news --seed 7 --seconds 16 --trace 0
//	bash perfbench/run.sh -compare old.json new.json
//
// Each run also writes a run record (header, metrics, sample counts,
// failures) and, when traced, every span, under .bench_build/runs.
// -compare prints two run records side by side and refuses records whose
// machine, workload, seed or settings differ.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dcsr/internal/video"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's settings from the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// sizes are the run's dimensions. fullSizes is what the benchmark
// measures; tests run the same code at tinySizes.
type sizes struct {
	titleW, titleH, titleSteps int // the titles' frame size and training budget
	titles                     int // titles per run; even ones float32, odd ones -int8 -delta
	minSessions                int // play sessions per measured half, at least

	trainSteps   int           // steps of the edsr.Model.Train probe
	convW, convH int           // input of the nn conv probe
	probeRepeats int           // repetitions of each per-call probe
	setupRepeats int           // repetitions of the input generation setup_s is the median of
	conns        int           // serve connections, one load goroutine each
	slice        time.Duration // length of one serve slice; serve_rps is the median of their rates
}

func fullSizes() sizes {
	return sizes{
		titleW: 320, titleH: 192, titleSteps: 150, titles: 4,
		minSessions: 4,
		trainSteps:  50, convW: 320, convH: 192, probeRepeats: 20,
		setupRepeats: 3,
		conns:        runtime.NumCPU(),
		slice:        time.Second,
	}
}

// workloads maps each workload name to its implementation: the whole
// pipeline over titles of one genre.
var workloads = map[string]func(*bench) error{
	"news":   runPipeline(video.GenreNews),
	"gaming": runPipeline(video.GenreGaming),
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: news or gaming")
	seed := fs.Int64("seed", 7, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 16, "measured seconds of the alternating play and serve phases (a traced run splits them into an untraced and a traced half)")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced half; 0 reports end-to-end metrics")
	outDir := fs.String("out", ".bench_build/runs", "directory for the run record and the span file")
	compare := fs.Bool("compare", false, "compare two run records given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two run records")
			return 2
		}
		if err := compareRecords(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload news|gaming, -seconds > 0 and -trace 0|1")
		return 2
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	b, err := measure(opts, fullSizes())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec := b.record()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rec.write(*outDir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.tr != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", opts.workload, opts.seed))
		if err := writeSpans(path, rec.Header, b.tr.snapshot()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	printRecord(stdout, rec)
	if !rec.Result.Correct {
		for _, f := range rec.Failures {
			fmt.Fprintln(stderr, "perfbench: failed:", f)
		}
		return 1
	}
	return 0
}

// printRecord prints the header, one line per metric and, last, the
// result object.
func printRecord(w io.Writer, rec *record) {
	hdr, err := json.Marshal(rec.Header)
	if err == nil {
		fmt.Fprintf(w, "# header %s\n", hdr)
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for name := range rec.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(w, "# %-32s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, rec.Samples[name])
	}
	fmt.Fprintf(w, "# %-32s %14.6g %-8s n=%d\n", "fail_frac", ratio(float64(rec.Result.Failed), float64(rec.Result.Attempted)), "frac", rec.Result.Attempted)
	phases := make([]string, 0, len(rec.PhaseSeconds))
	for name := range rec.PhaseSeconds {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	for _, name := range phases {
		fmt.Fprintf(w, "# phase %-26s %14.3f s\n", name, rec.PhaseSeconds[name])
	}
	fmt.Fprintf(w, "# %-32s %14.4f frac\n", "host_steal_frac", rec.HostStealFrac)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		line = []byte(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// bench accumulates one run: its metrics, operation counts and
// failures. e2e and layer hold the two metric families; the run reports
// one of them.
type bench struct {
	opts options
	sz   sizes
	tr   *tracer // nil unless the run is traced

	e2e, layer map[string]metric
	samples    map[string]int
	attempted  int
	failures   []string
	phases     map[string]float64 // wall seconds by phase of the run
	stealFrac  float64            // host CPU time stolen during the run, as a share
}

// measure runs one workload and returns the filled-in bench.
func measure(opts options, sz sizes) (*bench, error) {
	b := &bench{
		opts: opts, sz: sz,
		e2e: map[string]metric{}, layer: map[string]metric{}, samples: map[string]int{},
		phases: map[string]float64{},
	}
	if opts.trace {
		b.tr = newTracer()
	}
	steal0, total0, ok0 := cpuTicks()
	if err := workloads[opts.workload](b); err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 {
		b.stealFrac = ratio(float64(steal1-steal0), float64(total1-total0))
	}
	if b.attempted == 0 {
		return nil, errors.New(opts.workload + ": no operation ran")
	}
	return b, nil
}

// phase is how long one measured half of a run lasts: --seconds, or
// half of it in a traced run, which measures an untraced and a traced
// half.
func (b *bench) phase() time.Duration {
	d := time.Duration(b.opts.seconds * float64(time.Second))
	if b.opts.trace {
		d /= 2
	}
	return d
}

func (b *bench) endToEnd(name string, v float64, unit string, n int) {
	b.e2e[name] = metric{Value: v, Unit: unit}
	b.samples[name] = n
}

func (b *bench) perLayer(name string, v float64, unit string, n int) {
	b.layer[name] = metric{Value: v, Unit: unit}
	b.samples[name] = n
}

// phaseDone records the wall time of a phase of the run that began at
// start.
func (b *bench) phaseDone(name string, start time.Time) {
	b.phases[name] += time.Since(start).Seconds()
}

// fail records a failed operation or correctness check.
func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func (b *bench) record() *record {
	h := header{Machine: thisMachine(), Workload: b.opts.workload, Seed: b.opts.seed, Seconds: b.opts.seconds, Trace: b.opts.trace}
	metrics := b.e2e
	if b.opts.trace {
		metrics = b.layer
	}
	samples := make(map[string]int, len(metrics))
	for name := range metrics {
		samples[name] = b.samples[name]
	}
	return &record{
		Header: h,
		Result: result{
			Correct:   len(b.failures) == 0,
			Attempted: b.attempted,
			Failed:    len(b.failures),
			Metrics:   metrics,
		},
		Samples:       samples,
		Failures:      b.failures,
		PhaseSeconds:  b.phases,
		HostStealFrac: b.stealFrac,
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
