package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// machine identifies the host a run measured. Two runs are comparable
// only when their machines match field for field.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisMachine() machine {
	return machine{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or GOARCH
// where the file does not exist.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			key, val, ok := strings.Cut(line, ":")
			if ok && strings.TrimSpace(key) == "model name" {
				return strings.TrimSpace(val)
			}
		}
	}
	return runtime.GOARCH
}

// header is carried by every output of a run: the machine, the workload
// and the settings that shape its inputs and timing.
type header struct {
	Machine  machine `json:"machine"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run record written next to the build: the header, the
// printed result, how many samples each metric rests on, why any
// operation failed, how long each phase of the run took, and the share
// of the host's CPU time the hypervisor stole during the run. A run with
// a high steal share measured its neighbours as much as the program.
type record struct {
	Header        header             `json:"header"`
	Result        result             `json:"result"`
	Samples       map[string]int     `json:"samples,omitempty"`
	Failures      []string           `json:"failures,omitempty"`
	PhaseSeconds  map[string]float64 `json:"phase_seconds,omitempty"`
	HostStealFrac float64            `json:"host_steal_frac"`
}

func (r *record) path(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Header.Workload, r.Header.Seed, b2i(r.Header.Trace)))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (r *record) write(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.path(dir), append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// comparable refuses a comparison between runs that measured different
// machines, workloads, seeds or settings: their differences would not be
// the code's.
func comparable(a, b header) error {
	switch {
	case a.Machine != b.Machine:
		return fmt.Errorf("machine headers differ: %+v vs %+v", a.Machine, b.Machine)
	case a.Workload != b.Workload:
		return fmt.Errorf("workloads differ: %s vs %s", a.Workload, b.Workload)
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds || a.Trace != b.Trace:
		return fmt.Errorf("run settings differ: %gs trace=%v vs %gs trace=%v", a.Seconds, a.Trace, b.Seconds, b.Trace)
	}
	return nil
}

// compareRecords prints each metric both runs report, old then new, with
// the relative change; it refuses runs whose headers do not match.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	a, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if err := comparable(a.Header, b.Header); err != nil {
		return fmt.Errorf("refusing to compare %s with %s: %w", oldPath, newPath, err)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for name := range a.Result.Metrics {
		if _, ok := b.Result.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ma, mb := a.Result.Metrics[name], b.Result.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %-8s %+8.2f%%\n", name, ma.Value, mb.Value, ma.Unit, 100*ratio(mb.Value-ma.Value, ma.Value))
	}
	return nil
}

// cpuTicks returns the host's steal and total CPU ticks from the first
// line of /proc/stat; ok is false where the file does not exist.
func cpuTicks() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
