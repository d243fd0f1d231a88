package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/transport"
	"dcsr/internal/video"
)

// tinySizes runs every workload's code path in a few seconds.
func tinySizes() sizes {
	return sizes{
		titleW: 48, titleH: 32, titleSteps: 4, titles: 2,
		minSessions: 2,
		trainSteps:  2, convW: 32, convH: 16, probeRepeats: 2,
		setupRepeats: 2,
		conns:        2,
		slice:        50 * time.Millisecond,
	}
}

// registry is BENCHMARK.json's metric lists.
type registry struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadRegistry(t *testing.T) registry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r registry
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size: each must pass its correctness checks and report exactly the
// metrics BENCHMARK.json registers — every end-to-end metric untraced,
// every per-layer metric traced — each with the registered unit.
func TestWorkloadsTiny(t *testing.T) {
	reg := loadRegistry(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range reg.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range reg.PerLayer {
		units[true][m.Name] = m.Unit
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			b, err := measure(options{workload: name, seed: 3, seconds: 0.3, trace: traced}, tinySizes())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			rec := b.record()
			if !rec.Result.Correct || rec.Result.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures=%v", name, traced,
					rec.Result.Correct, rec.Result.Attempted, rec.Failures)
			}
			for metric, m := range rec.Result.Metrics {
				want, ok := units[traced][metric]
				if !ok {
					t.Errorf("%s trace=%v reports unregistered metric %s", name, traced, metric)
				} else if m.Unit != want {
					t.Errorf("%s: %s in %s, registered in %s", name, metric, m.Unit, want)
				}
			}
			for metric := range units[traced] {
				if _, ok := rec.Result.Metrics[metric]; !ok {
					t.Errorf("%s trace=%v does not report registered metric %s", name, traced, metric)
				}
			}
		}
	}
}

// tinyTitle prepares one tiny title and records its origin payloads.
func tinyTitle(t *testing.T) *title {
	t.Helper()
	sz := tinySizes()
	c := titleClip(video.GenreNews, sz.titleW, sz.titleH, 5)
	p, err := core.Prepare(c.frames, c.fps, serverConfig(5, sz.titleSteps, true))
	if err != nil {
		t.Fatal(err)
	}
	tt := &title{name: "news", int8Delta: true, clip: c, prep: p}
	if err := tt.originPayloads(); err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestTamperedFrameFailsCheck(t *testing.T) {
	tt := tinyTitle(t)
	res, err := core.NewPlayer(tt.prep).Play()
	if err != nil {
		t.Fatal(err)
	}
	session := func(frames []*video.YUV) playSession {
		st := &transport.PlayStats{ModelBytes: 10, FullModelBytes: 10}
		return playSession{title: tt, frames: len(frames), stats: st, digest: framesDigest(frames)}
	}
	b := &bench{}
	checkPlayback(b, []*title{tt}, []playSession{session(res.Frames)})
	if len(b.failures) != 0 {
		t.Fatalf("untampered playback failed the check: %v", b.failures)
	}
	tampered := make([]*video.YUV, len(res.Frames))
	copy(tampered, res.Frames)
	f := *tampered[len(tampered)/2]
	f.Y = append([]uint8(nil), f.Y...)
	f.Y[0] ^= 1
	tampered[len(tampered)/2] = &f
	checkPlayback(b, []*title{tt}, []playSession{session(tampered)})
	if len(b.failures) != 1 || !strings.Contains(b.failures[0], "differ") {
		t.Fatalf("one flipped bit should fail the pixel check, got %v", b.failures)
	}
	bad := session(res.Frames)
	bad.stats.BackboneBytes = 1
	checkPlayback(b, []*title{tt}, []playSession{bad})
	if len(b.failures) != 2 || !strings.Contains(b.failures[1], "ModelBytes") {
		t.Fatalf("a byte breakdown that does not add up should fail, got %v", b.failures)
	}
}

func TestTamperedPayloadFailsCheck(t *testing.T) {
	tt := tinyTitle(t)
	seg := append([]byte(nil), tt.segments[0]...)
	if err := tt.checkSegment(0, seg); err != nil {
		t.Fatalf("origin segment failed its own check: %v", err)
	}
	seg[len(seg)-1] ^= 0x80
	if err := tt.checkSegment(0, seg); err == nil {
		t.Fatal("a tampered segment passed the digest check")
	}
	for label, sm := range tt.prep.Models {
		m, err := edsr.New(tt.prep.MicroConfig, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.LoadWeights(bytes.NewReader(sm.Bytes), m.Params()); err != nil {
			t.Fatal(err)
		}
		if err := tt.checkModel(label, m.Params()); err != nil {
			t.Fatalf("origin model failed its own check: %v", err)
		}
		m.Params()[0].W.Data[0] += 1e-3
		if err := tt.checkModel(label, m.Params()); err == nil {
			t.Fatal("a tampered model passed the digest check")
		}
	}
}

func TestCompareRefusesMismatchedHeaders(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h header) string {
		rec := &record{Header: h, Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {Value: 1, Unit: "s"}}}}
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := header{Machine: thisMachine(), Workload: "play", Seed: 7, Seconds: 20}
	a := write("a.json", h)
	same := write("same.json", h)
	other := h
	other.Machine.GOMAXPROCS++
	otherMachine := write("machine.json", other)
	other = h
	other.Seed = 8
	otherSeed := write("seed.json", other)

	var out bytes.Buffer
	if err := compareRecords(&out, a, same); err != nil || !strings.Contains(out.String(), "setup_s") {
		t.Fatalf("matching headers: err=%v out=%q", err, out.String())
	}
	for _, p := range []string{otherMachine, otherSeed} {
		if err := compareRecords(&out, a, p); err == nil {
			t.Errorf("comparing with %s should be refused", filepath.Base(p))
		}
	}
}

func TestResultLineKeys(t *testing.T) {
	rec := &record{Result: result{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {Value: 0.5, Unit: "s"}}}}
	var out bytes.Buffer
	printRecord(&out, rec)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys = %v", keys)
	}
}
