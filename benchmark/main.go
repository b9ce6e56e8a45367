// Command benchmark is the repository's performance instrument: four served
// workloads against the real maybmsd binary (end-to-end metrics, tracing
// off), and a traced in-process replay of the same request streams that
// attributes the time to the layers (sql, engine, shard, storage, server).
// BENCHMARK.json at the repository root declares it; README.md in this
// directory defines every metric and workload.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh [-workload name[,name...]] [-seed n] [-seconds s]
//	                      [-trace 0|1] [-repeat n]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// header is what every output starts with: enough to tell whether two runs
// are comparable.
type header struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Kernel     string    `json:"kernel"`
	Seed       int64     `json:"seed"`
	Conns      int       `json:"connections"`
	WarmupS    float64   `json:"warmup_s"`
	WindowS    float64   `json:"window_s"`
	Time       time.Time `json:"time"`
}

func newHeader(e *env) header {
	h := header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown (not a git checkout)", Kernel: "unknown",
		Seed: e.seed, Conns: e.conns, WarmupS: e.warmup.Seconds(), WindowS: e.window.Seconds(), Time: time.Now().UTC(),
	}
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", e.root, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			h.Commit += " (dirty)"
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

func (h header) print() {
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s kernel=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Kernel)
	fmt.Printf("# seed=%d connections=%d (closed loop) warmup=%gs window=%gs\n", h.Seed, h.Conns, h.WarmupS, h.WindowS)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", "..", "repository checkout the benchmark measures")
	names := flag.String("workload", "", "workload to run, or a comma-separated list (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the generated CSV and the request streams")
	seconds := flag.Float64("seconds", 20, "length of the timed window per workload")
	trace := flag.Int("trace", 0, "1 = the traced in-process run (per-layer metrics); 0 = the end-to-end run")
	conns := flag.Int("conns", connections(), "client connections of the closed loop")
	repeat := flag.Int("repeat", 1, "run the selected workloads this many times and print the spread of every end-to-end metric")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *conns < 1 || *repeat < 1 || *seconds <= 0 {
		return fmt.Errorf("-conns, -repeat and -seconds must be positive")
	}

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	var selected []*workload
	if *names == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = append(selected, w)
	}

	build := filepath.Join(absRoot, ".bench_build")
	work := filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// An interrupted run stops its servers and removes its scratch files too.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		killServers()
		os.RemoveAll(work)
		os.Exit(130)
	}()
	outDir := filepath.Join(absRoot, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(absRoot, filepath.Join(build, "bin"))
	if err != nil {
		return err
	}
	e := &env{
		root: absRoot, bin: bin, work: work, seed: *seed,
		warmup: 2 * time.Second, window: time.Duration(*seconds * float64(time.Second)),
		conns: *conns,
	}
	h := newHeader(e)
	h.print()

	if *trace != 0 {
		return traceAll(e, h, selected, outDir)
	}
	allCorrect := true
	history := make(map[string][]*e2eResult)
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			var res *e2eResult
			if err := e.inRunDir(w.name, func(e *env) (err error) {
				res, err = runE2E(e, w)
				return err
			}); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			history[w.name] = append(history[w.name], res)
			res.print()
			if err := writeJSON(filepath.Join(outDir, w.name+".json"), struct {
				Header header     `json:"header"`
				Result *e2eResult `json:"result"`
			}{h, res}); err != nil {
				return err
			}
			allCorrect = allCorrect && res.Correct && res.Failed == 0
			fmt.Println(res.contractLine())
		}
	}
	if *repeat > 1 {
		printSpread(selected, history)
	}
	if !allCorrect {
		return fmt.Errorf("a served answer was wrong or an operation failed (see above)")
	}
	return nil
}

// traceAll runs the traced replay of every selected workload and writes the
// spans of all of them to out/trace.json when it ends.
func traceAll(e *env, h header, selected []*workload, outDir string) error {
	type traced struct {
		Result *traceResult `json:"result"`
		Spans  []span       `json:"spans"`
	}
	var all []traced
	allCorrect := true
	for _, w := range selected {
		var res *traceResult
		var spans []span
		if err := e.inRunDir(w.name, func(e *env) (err error) {
			res, spans, err = runTrace(e, w)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		all = append(all, traced{res, spans})
		res.print()
		allCorrect = allCorrect && res.Correct
		fmt.Println(res.contractLine())
	}
	if err := writeJSON(filepath.Join(outDir, "trace.json"), struct {
		Header    header   `json:"header"`
		Workloads []traced `json:"workloads"`
	}{h, all}); err != nil {
		return err
	}
	if !allCorrect {
		return fmt.Errorf("a stepped, session or served answer was wrong (see above)")
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
