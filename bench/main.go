// Command bench is the repository's benchmark: six named workloads over
// seeded inputs, thirteen end-to-end metrics measured with tracing off,
// and — in a separate traced run — per-layer metrics taken from outside
// by timing calls into each layer's exported functions. README.md has
// the glossary; BENCHMARK.json at the repository root is rendered from
// the tables in metrics.go and workloads.go.
//
//	bash bench/run.sh                         all six workloads, tracing off
//	bash bench/run.sh -workload http_zipf     one workload
//	bash bench/run.sh -trace -workload ...    the traced run (per-layer metrics, out/trace.json)
//	bash bench/run.sh -compare a.json b.json  compare two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runRecord is one invocation in a result file.
type runRecord struct {
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Smoke     bool              `json:"smoke"`
	Trace     bool              `json:"trace"`
	Workloads []*workloadResult `json:"workloads"`
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendRun adds rec to the result file at path, creating it if absent.
func appendRun(path string, rec runRecord) error {
	rf, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		rf, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// normalizeArgs rewrites "-trace 1" as "-trace=1": the flag package
// reads a bare -trace as true and would stop parsing at the "1", but
// the benchmark driver passes the value as its own argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// defaultOutDir is bench/out under the repository root, wherever the
// program was started from.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func printResult(res *workloadResult) {
	state := "ok"
	if !res.Correct {
		state = "INCORRECT"
	}
	if res.Unstable {
		state += ", unstable (" + res.UnstableWhy + ")"
	}
	fmt.Printf("\n%s: %d attempted, %d failed — %s\n", res.Workload, res.Attempted, res.Failed, state)
	for _, f := range res.Failures {
		fmt.Printf("  failure: %s\n", f)
	}
	names := sortedKeys(res.Metrics)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

func printFingerprints(res *workloadResult) {
	h := res.Host
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q load %.2f -> %.2f\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.LoadBefore, h.LoadAfter)
	for _, k := range sortedKeys(res.Fingerprints) {
		fmt.Printf("sha256 %-18s %s\n", k, res.Fingerprints[k])
	}
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Int64("seed", 42, "seed every input is generated from")
	seconds := fs.Int("seconds", runSeconds, "scales the fixed op count of the timed phase (about this many seconds on the calibration host)")
	trace := fs.Bool("trace", false, "the traced run: per-layer metrics and out/trace.json instead of end-to-end metrics")
	smoke := fs.Bool("smoke", false, "small corpora and 1/50 of the ops: a functional check, not a measurement")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	out := fs.String("out", "", "result file to append this run to (default <bench>/out/results.json)")
	describeFlag := fs.Bool("describe", false, "print BENCHMARK.json as the program defines it")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	switch {
	case *describeFlag:
		os.Stdout.Write(describe())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}

	outDir := defaultOutDir()
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: outDir}
	defs := workloads
	if *workload != "" {
		def := workloadByName(*workload)
		if def == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		defs = []workloadDef{*def}
	}

	rec := runRecord{Seed: *seed, Seconds: *seconds, Smoke: *smoke, Trace: *trace}
	code := 0
	for i := range defs {
		var res *workloadResult
		var err error
		if *trace {
			res, err = runTraced(&defs[i], cfg)
		} else {
			res, err = runEndToEnd(&defs[i], cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", defs[i].name, err)
			return 1
		}
		if i == 0 {
			printFingerprints(res)
		}
		printResult(res)
		rec.Workloads = append(rec.Workloads, res)
		if !res.Correct {
			code = 1
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "results.json")
	}
	if err := appendRun(path, rec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	// The last line of standard output is the driver's: one JSON object
	// for the (single) workload run.
	if len(rec.Workloads) == 1 {
		res := rec.Workloads[0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return code
}

// sortedWorkloadNames orders names as the workloads table does, unknown
// names last.
func sortedWorkloadNames(names []string) []string {
	rank := map[string]int{}
	for i, w := range workloads {
		rank[w.name] = i + 1
	}
	sort.SliceStable(names, func(i, j int) bool {
		ri, rj := rank[names[i]], rank[names[j]]
		if ri == 0 {
			ri = len(workloads) + 1
		}
		if rj == 0 {
			rj = len(workloads) + 1
		}
		return ri < rj
	})
	return names
}
