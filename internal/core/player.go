package core

import (
	"bytes"
	"context"
	"fmt"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// PlayResult is the outcome of one client playback pass.
type PlayResult struct {
	// Frames are the displayed (enhanced) frames in display order.
	Frames []*video.YUV
	// Session holds the download/caching accounting (Algorithm 1).
	Session *stream.Session
	// Decode holds decoder statistics including enhancement count.
	Decode codec.DecodeStats

	// CacheHits and CacheMisses summarize micro-model cache behaviour
	// (Algorithm 1): hits reused a cached model, misses downloaded one.
	// They cover exactly the segments that reference a model.
	CacheHits   int
	CacheMisses int
	// ModelBytes is the total micro-model download volume.
	ModelBytes int
	// BackboneBytes, DeltaModelBytes and FullModelBytes break ModelBytes
	// down for model-stream manifests: the shared backbone (paid once),
	// the per-cluster dcW5 deltas, and models shipped complete (including
	// assembly fallbacks). For manifests without a backbone everything
	// lands in FullModelBytes.
	BackboneBytes   int
	DeltaModelBytes int
	FullModelBytes  int
	// Evictions counts models evicted from the byte-budgeted cache; each
	// evicted label is re-downloaded on its next reference.
	Evictions int
	// CacheBytes is the serialized model bytes resident in the cache at
	// end of session (≤ Player.CacheBudget when one is set).
	CacheBytes int64
	// DegradedSegments counts segments that played without SR because
	// their model fetch failed (see the fault model in package stream).
	DegradedSegments int
}

// TotalBytes returns the bytes a real client would have downloaded.
func (r *PlayResult) TotalBytes() int { return r.Session.TotalBytes() }

// Source delivers what paper Algorithm 1 walks: segment i as an
// independently decodable sub-stream, and micro models either complete
// (Model) or, for manifests carrying a backbone, as the shared backbone
// plus a per-label dcW5 delta. A Prepared serves them from memory (the
// Player); transport.Client serves them over the wire.
type Source interface {
	Segment(ctx context.Context, i int) (*codec.Stream, error)
	Model(ctx context.Context, label int) ([]byte, error)
	Backbone(ctx context.Context) ([]byte, error)
	Delta(ctx context.Context, label int) ([]byte, error)
}

// PlayConfig parameterizes one PlaySource walk.
type PlayConfig struct {
	Manifest *stream.Manifest
	Micro    edsr.Config // the architecture every micro model loads into
	Budget   int64       // model cache bytes, as stream.NewSessionWithBudget
	// Enhance fetches models and runs SR; false plays the raw segments.
	Enhance bool
	// Int8 arms int8-gated models with their ModelInfo.ActScales.
	Int8        bool
	Propagation codec.Propagation
	Obs         *obs.Obs
	Log         *obs.Logger
	// Trace parents one segment_fetch span per segment, which the Source
	// sees through obs.SpanFromContext; decoding runs in Trace's own time.
	Trace *obs.Span
}

// PlaySource is the one implementation of paper Algorithm 1: per
// segment it downloads the sub-stream, fetches the micro model on a
// cache miss (stream.Session owns cache, eviction, degradation and byte
// accounting), and decodes the segment with the model in the I-frame
// hook (paper Fig 6). A delta-shipped label (and the backbone's own) is
// assembled from the backbone, fetched and digest-checked once per
// session, plus its delta, and must match the manifest digest before it
// is armed; any assembly failure falls back to the complete model
// (modelstream_fallback_total). A failed model fetch degrades its
// segment; a failed segment fetch or decode, or a cancelled ctx, aborts.
func PlaySource(ctx context.Context, src Source, cfg PlayConfig) (*PlayResult, error) {
	sess, err := stream.NewSessionWithBudget(cfg.Manifest, cfg.Budget)
	if err != nil {
		return nil, err
	}
	sess.Obs = cfg.Obs
	f := &fetcher{src: src, cfg: &cfg, models: make(map[int]*edsr.Model)}
	dec := codec.Decoder{Mode: cfg.Propagation, Obs: cfg.Obs}
	var out []*video.YUV
	for _, seg := range cfg.Manifest.Segments {
		sp := cfg.Trace.Child("segment_fetch")
		sp.Set("segment", seg.Index)
		sctx := obs.ContextWithSpan(ctx, sp)
		sub, err := src.Segment(sctx, seg.Index)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: segment %d: %w", seg.Index, err)
		}
		if !cfg.Enhance {
			seg.ModelLabel = -1 // no SR, so no model to fetch
		}
		sess.Source = func(label int) (stream.Download, error) { return f.fetch(sctx, label) }
		ev := sess.StepIn(sp, seg)
		sp.End()
		if ev.Degraded {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cfg.Log.Warn("core: model fetch failed; playing segment without SR",
				"segment", seg.Index, "model", seg.ModelLabel)
		}
		for _, label := range ev.Evicted {
			delete(f.models, label)
		}
		cfg.Log.Debug("core: segment fetched", "segment", seg.Index,
			"bytes", seg.Bytes, "model", seg.ModelLabel)
		dec.Enhancer = nil
		if m := f.models[seg.ModelLabel]; m != nil && !ev.Degraded {
			dec.Enhancer = codec.PrecisionEnhancerFunc(func(_ int, fr *video.YUV) (*video.YUV, codec.Precision) {
				if m.Int8Ready() {
					return m.EnhanceYUVInt8(fr), codec.PrecisionInt8
				}
				return m.EnhanceYUV(fr), codec.PrecisionFloat32
			})
		}
		frames, err := dec.Decode(sub)
		if err != nil {
			return nil, fmt.Errorf("core: decoding segment %d: %w", seg.Index, err)
		}
		out = append(out, frames...)
	}
	return &PlayResult{
		Frames: out, Session: sess, Decode: dec.Stats,
		CacheHits: sess.CacheHits, CacheMisses: sess.CacheMisses,
		ModelBytes: sess.ModelBytes, DegradedSegments: sess.DegradedSegments,
		Evictions: sess.Evictions(), CacheBytes: sess.CacheBytes(),
		BackboneBytes: sess.BackboneBytes, DeltaModelBytes: sess.DeltaModelBytes,
		FullModelBytes: sess.FullModelBytes,
	}, nil
}

// fetcher backs PlaySource's stream.Session Source: it turns a cache
// miss into an armed model and reports the bytes the delivery moved.
type fetcher struct {
	src      Source
	cfg      *PlayConfig
	backbone []byte              // verified backbone payload; nil until fetched
	base     *edsr.Model         // deserialized backbone, the delta base
	models   map[int]*edsr.Model // twins of the cached payloads
}

func (f *fetcher) fetch(ctx context.Context, label int) (stream.Download, error) {
	var d stream.Download
	mi := f.cfg.Manifest.Models[label]
	if bb := f.cfg.Manifest.Backbone; bb != nil && (mi.Delta || label == bb.Label) {
		m, err := f.assemble(ctx, label, mi, &d)
		if err == nil {
			f.arm(label, m)
			return d, nil
		}
		if ctx.Err() != nil {
			return d, err
		}
		f.cfg.Obs.Counter("modelstream_fallback_total").Inc()
		f.cfg.Log.Warn("core: model assembly failed; falling back to full fetch",
			"model", label, "err", err)
	}
	data, err := f.src.Model(ctx, label)
	if err != nil {
		return d, err
	}
	m, err := f.load(data)
	if err != nil {
		return d, fmt.Errorf("core: model %d: %w", label, err)
	}
	d.Data, d.Full = data, len(data)
	f.arm(label, m)
	return d, nil
}

// assemble builds a model-stream label: the backbone's own label is the
// backbone payload; a delta label applies its dcW5 payload to the
// backbone and must hash to the manifest's full-payload digest. Only
// verified payloads are charged to d.
func (f *fetcher) assemble(ctx context.Context, label int, mi stream.ModelInfo, d *stream.Download) (*edsr.Model, error) {
	bb := f.cfg.Manifest.Backbone
	if f.base == nil {
		data, err := f.src.Backbone(ctx)
		if err != nil {
			return nil, err
		}
		if got := payloadDigest(data); got != bb.Digest {
			return nil, fmt.Errorf("core: backbone digest %s, manifest says %s", got, bb.Digest)
		}
		base, err := f.load(data)
		if err != nil {
			return nil, fmt.Errorf("core: backbone weights: %w", err)
		}
		f.backbone, f.base = data, base
		d.Backbone = len(data)
		f.cfg.Log.Debug("core: backbone fetched", "bytes", len(data))
	}
	if label == bb.Label {
		// A fresh copy: int8 arming must not touch the delta base.
		d.Data = f.backbone
		return f.load(f.backbone)
	}
	delta, err := f.src.Delta(ctx, label)
	if err != nil {
		return nil, err
	}
	m, err := edsr.New(f.cfg.Micro, 0)
	if err != nil {
		return nil, err
	}
	if err := nn.ApplyWeightsDelta(f.base.Params(), delta, m.Params()); err != nil {
		return nil, fmt.Errorf("core: model %d delta: %w", label, err)
	}
	if got := payloadDigest(nn.EncodeWeights(m.Params())); got != mi.Digest {
		return nil, fmt.Errorf("core: model %d assembled digest %s, manifest says %s", label, got, mi.Digest)
	}
	d.Data, d.Delta = delta, len(delta)
	return m, nil
}

func (f *fetcher) load(data []byte) (*edsr.Model, error) {
	m, err := edsr.New(f.cfg.Micro, 0)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadWeights(bytes.NewReader(data), m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// arm calibrates an int8-gated model from the origin's activation scales
// (bit-identical pixels) and keeps it for the label's cache hits. A bad
// scale vector leaves the model on float32 rather than degrading.
func (f *fetcher) arm(label int, m *edsr.Model) {
	if mi := f.cfg.Manifest.Models[label]; f.cfg.Int8 && mi.Int8 && len(mi.ActScales) > 0 {
		if err := m.CalibrateFromScales(mi.ActScales); err != nil {
			f.cfg.Log.Warn("core: int8 calibration rejected; model stays float32",
				"model", label, "err", err)
		}
	}
	f.models[label] = m
}

// Player is the client-side dcSR over a local Prepared: PlaySource
// walking the prepared stream's segments and models from memory.
type Player struct {
	prepared *Prepared
	// UseCache toggles micro-model caching (paper §3.2.2); default true.
	UseCache bool
	// CacheBudget bounds the model cache in bytes of serialized weights:
	// past the budget the least-recently-used model is evicted and its
	// next reference re-downloads it. 0 (the default) leaves the cache
	// unbounded, the paper's Algorithm 1 behaviour. Ignored when
	// UseCache is false.
	CacheBudget int64
	// Enhance toggles SR entirely (false plays the raw low-quality video,
	// the "LOW" series of paper Fig 9, and fetches no model).
	Enhance bool
	// Int8 lets the player use the quantized kernel path for models the
	// manifest advertises as int8-calibrated (ModelInfo.Int8); models
	// that failed the server's quality gate — or predate it — always run
	// float32. Default true; false forces float32 everywhere (the
	// precision ablation).
	Int8 bool
	// Propagation selects how enhancement reaches P/B frames; the default
	// is codec.PropagateDelta (drift-free). codec.PropagateReplace is the
	// paper-literal DPB replacement, kept for the propagation ablation.
	Propagation codec.Propagation
	// Obs receives playback metrics (cache hit/miss/bytes counters, the
	// decoder's enhance-latency histogram) and a play span with one
	// segment_fetch child per segment; nil disables instrumentation.
	Obs *obs.Obs
	// FetchModel, when set, gates every model download the local source
	// serves (GateModels): an error fails it as a failed wire request
	// would — delta assembly falls back to the complete model, and a
	// failed delivery degrades its segment instead of aborting playback.
	FetchModel func(label int) error
}

// NewPlayer builds a player over a prepared stream.
func NewPlayer(p *Prepared) *Player {
	return &Player{prepared: p, UseCache: true, Enhance: true, Int8: true, Propagation: codec.PropagateDelta}
}

// Play runs the full streaming session over the prepared stream:
// per-segment downloads with model caching, each segment decoded with
// in-loop I-frame enhancement. The stream must be free of B frames
// (Prepared.SegmentStream), as for serving.
func (pl *Player) Play() (*PlayResult, error) {
	p := pl.prepared
	root := pl.Obs.Start("play")
	defer root.End()
	budget := int64(-1)
	switch {
	case !pl.UseCache:
		budget = 0
	case pl.CacheBudget > 0:
		budget = pl.CacheBudget
	}
	var src Source = localSource{p}
	if pl.FetchModel != nil {
		src = GateModels(src, p.Manifest, pl.FetchModel)
	}
	log := pl.Obs.Logger()
	res, err := PlaySource(context.Background(), src, PlayConfig{
		Manifest: p.Manifest, Micro: p.MicroConfig, Budget: budget,
		Enhance: pl.Enhance, Int8: pl.Int8, Propagation: pl.Propagation,
		Obs: pl.Obs, Log: log, Trace: root,
	})
	if err != nil {
		return nil, err
	}
	sess := res.Session
	log.Info("play: session complete",
		"segments", len(p.Manifest.Segments), "cache_hits", sess.CacheHits,
		"cache_misses", sess.CacheMisses, "degraded", sess.DegradedSegments,
		"bytes", sess.TotalBytes())
	return res, nil
}

// localSource serves a Prepared from memory.
type localSource struct{ p *Prepared }

func (s localSource) Segment(_ context.Context, i int) (*codec.Stream, error) {
	return s.p.SegmentStream(i)
}

func (s localSource) Model(_ context.Context, label int) ([]byte, error) {
	sm, ok := s.p.Models[label]
	if !ok {
		return nil, fmt.Errorf("core: no model %d", label)
	}
	return sm.Bytes, nil
}

func (s localSource) Backbone(ctx context.Context) ([]byte, error) {
	return s.Model(ctx, s.p.Manifest.Backbone.Label)
}

func (s localSource) Delta(_ context.Context, label int) ([]byte, error) {
	sm, ok := s.p.Models[label]
	if !ok || sm.Delta == nil || !sm.Delta.DeltaOK {
		return nil, fmt.Errorf("core: model %d ships no delta", label)
	}
	return sm.Delta.Bytes, nil
}

// GateModels wraps src so every model download first passes gate: Model
// and Delta under their label, Backbone under m's backbone label (a
// Source is asked for the backbone only when its manifest has one). It
// is the failure-injection seam every playback path shares.
func GateModels(src Source, m *stream.Manifest, gate func(label int) error) Source {
	return gatedSource{Source: src, m: m, gate: gate}
}

type gatedSource struct {
	Source
	m    *stream.Manifest
	gate func(label int) error
}

func (g gatedSource) Model(ctx context.Context, label int) ([]byte, error) {
	if err := g.gate(label); err != nil {
		return nil, err
	}
	return g.Source.Model(ctx, label)
}

func (g gatedSource) Backbone(ctx context.Context) ([]byte, error) {
	if err := g.gate(g.m.Backbone.Label); err != nil {
		return nil, err
	}
	return g.Source.Backbone(ctx)
}

func (g gatedSource) Delta(ctx context.Context, label int) ([]byte, error) {
	if err := g.gate(label); err != nil {
		return nil, err
	}
	return g.Source.Delta(ctx, label)
}
