package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"dcsr/internal/core"
	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// pathOutcome is everything one playback reports that the paths must
// agree on.
type pathOutcome struct {
	frames []*video.YUV
	// The session accounting.
	hits, misses, downloads, evictions int
	cacheBytes                         int64
	model, backbone, delta, full       int
	degraded, enhanced, enhancedInt8   int
	// The metrics the engine emits, read back from the path's registry.
	metrics map[string]int64
}

// pathMetrics are the session, model-stream, cache and codec counters
// every playback path emits once per event.
var pathMetrics = []string{
	"segments_fetched_total", "video_bytes_total", "cache_hits_total", "cache_misses_total",
	"model_bytes_total", "degraded_segments_total", "model_fetch_failures_total",
	"modelstream_backbone_fetch_total", "modelstream_delta_bytes_total", "modelstream_fallback_total",
	"modelstore_evictions_total", "codec_iframes_enhanced_total", "codec_frames_decoded_total",
}

func snapshotPathMetrics(o *obs.Obs) map[string]int64 {
	snap := o.Metrics.Snapshot()
	out := make(map[string]int64, len(pathMetrics))
	for _, name := range pathMetrics {
		out[name] = snap.Counters[name]
	}
	return out
}

// failFirst returns a model gate that fails the first n model downloads
// of label (a backbone download counts under the backbone's label).
func failFirst(label, n int) func(int) error {
	calls := 0
	return func(l int) error {
		if l != label {
			return nil
		}
		calls++
		if calls <= n {
			return fmt.Errorf("injected outage %d for label %d", calls, label)
		}
		return nil
	}
}

// gateLabel picks the label the injected failure hits: one referenced
// by at least two segments, preferring a delta-shipped one so the
// failure also drives assembly fallback.
func gateLabel(t *testing.T, prep *core.Prepared) int {
	t.Helper()
	refs := map[int]int{}
	for _, s := range prep.Manifest.Segments {
		if s.ModelLabel >= 0 {
			refs[s.ModelLabel]++
		}
	}
	best := -1
	for _, label := range prep.Manifest.ModelLabels() {
		if refs[label] < 2 {
			continue
		}
		if best < 0 || (prep.Manifest.Models[label].Delta && !prep.Manifest.Models[best].Delta) {
			best = label
		}
	}
	if best < 0 {
		t.Fatal("no model is referenced twice; the degrade-then-retry path would be vacuous")
	}
	return best
}

func playLocalPath(t *testing.T, prep *core.Prepared, budget int64, gate func(int) error) pathOutcome {
	t.Helper()
	o := obs.New()
	pl := core.NewPlayer(prep)
	pl.CacheBudget = budget
	pl.FetchModel = gate
	pl.Obs = o
	res, err := pl.Play()
	if err != nil {
		t.Fatal(err)
	}
	return pathOutcome{
		frames: res.Frames, hits: res.CacheHits, misses: res.CacheMisses,
		downloads: res.Session.Downloads, evictions: res.Evictions, cacheBytes: res.CacheBytes,
		model: res.ModelBytes, backbone: res.BackboneBytes, delta: res.DeltaModelBytes, full: res.FullModelBytes,
		degraded: res.DegradedSegments, enhanced: res.Decode.Enhanced, enhancedInt8: res.Decode.EnhancedInt8,
		metrics: snapshotPathMetrics(o),
	}
}

// playWirePath plays prep over the wire. With mux set, prep is the
// second video of a two-video FleetServer, so SelectVideoCtx moves the
// client onto mux framing; otherwise prep is served alone over classic
// framing.
func playWirePath(t *testing.T, prep *core.Prepared, mux bool, budget int64, gate func(int) error) pathOutcome {
	t.Helper()
	ctx := context.Background()
	srv := NewFleetServer()
	if mux {
		other, _ := getFixture2(t)
		if _, err := srv.Register(other); err != nil {
			t.Fatal(err)
		}
	}
	digest, err := srv.Register(prep)
	if err != nil {
		t.Fatal(err)
	}
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()
	client := NewClient(cconn)
	if mux {
		if _, err := client.ManifestCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if err := client.SelectVideoCtx(ctx, digest); err != nil {
			t.Fatal(err)
		}
		if !client.MuxWire || client.Video == 0 {
			t.Fatalf("client not routed over mux framing (MuxWire %v, Video %d)", client.MuxWire, client.Video)
		}
	}
	o := obs.New()
	client.Obs = o
	client.CacheBudget = budget
	client.gate = gate
	out, st, err := client.PlayCtx(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	m := snapshotPathMetrics(o)
	return pathOutcome{
		frames: out, hits: st.CacheHits, misses: int(m["cache_misses_total"]),
		downloads: st.ModelDownloads, evictions: st.Evictions, cacheBytes: st.CacheBytes,
		model: st.ModelBytes, backbone: st.BackboneBytes, delta: st.DeltaModelBytes, full: st.FullModelBytes,
		degraded: st.DegradedSegments, enhanced: st.Enhanced, enhancedInt8: st.EnhancedInt8,
		metrics: m,
	}
}

func comparePaths(ref, got pathOutcome) error {
	if !framesEqual(ref.frames, got.frames) {
		return errors.New("frames differ")
	}
	refM, gotM := ref.metrics, got.metrics
	ref.frames, got.frames, ref.metrics, got.metrics = nil, nil, nil, nil
	if fmt.Sprint(ref) != fmt.Sprint(got) {
		return fmt.Errorf("accounting differs:\n  core.Player %+v\n  this path   %+v", ref, got)
	}
	for _, name := range pathMetrics {
		if refM[name] != gotM[name] {
			return fmt.Errorf("%s = %d, core.Player emitted %d", name, gotM[name], refM[name])
		}
	}
	return nil
}

// TestPlaybackPathsAgree is the differential test across every playback
// path: core.Player over a local Prepared, Client on classic framing, and
// Client routed over mux framing to a non-default video of a fleet
// server. Both the plain and the delta+int8 fixture play under the same
// cache budgets (unbounded, 1 B — nothing fits — and 4000 B, which
// evicts on the delta fixture), with and without the same injected
// model-fetch failure (the first two downloads of one label fail, so a
// segment degrades, a delta assembly falls back, and the label is
// retried lazily). Frames, session accounting and the emitted metrics
// must be identical on every path, and ModelBytes must always equal
// backbone + delta + full.
func TestPlaybackPathsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	fixtures := []struct {
		name string
		prep *core.Prepared
	}{
		{"plain", func() *core.Prepared { p, _ := getFixture(t); return p }()},
		{"delta+int8", getDeltaFixture(t)},
	}
	for _, fx := range fixtures {
		label := gateLabel(t, fx.prep)
		for _, budget := range []int64{0, 1, 4000} {
			for _, inject := range []bool{false, true} {
				name := fmt.Sprintf("%s/budget=%d/inject=%v", fx.name, budget, inject)
				t.Run(name, func(t *testing.T) {
					gate := func() func(int) error {
						if inject {
							return failFirst(label, 2)
						}
						return nil
					}
					ref := playLocalPath(t, fx.prep, budget, gate())
					if ref.model != ref.backbone+ref.delta+ref.full {
						t.Fatalf("ModelBytes %d != backbone %d + delta %d + full %d",
							ref.model, ref.backbone, ref.delta, ref.full)
					}
					if inject && ref.degraded == 0 {
						t.Fatal("injected failure degraded no segment")
					}
					if fx.name == "delta+int8" && budget == 4000 && ref.evictions == 0 {
						t.Fatal("4000 B budget evicted nothing on the delta fixture")
					}
					for _, mux := range []bool{false, true} {
						got := playWirePath(t, fx.prep, mux, budget, gate())
						if err := comparePaths(ref, got); err != nil {
							t.Errorf("mux=%v: %v", mux, err)
						}
					}
				})
			}
		}
	}
}
