// Package stream implements the streaming-session bookkeeping of dcSR's
// client: the manifest mapping video segments to micro-model labels, the
// model cache with the fetch-on-miss policy of paper Algorithm 1, and
// byte-accurate download accounting used by the bandwidth experiments
// (paper Fig 10).
//
// # Fault model
//
// Algorithm 1 assumes every model fetch succeeds; Session extends it
// with graceful degradation. A Session with a Source performs a real
// model delivery per cache miss, and a failed delivery degrades the
// segment (Event.Degraded, Session.DegradedSegments) instead of aborting
// the walk: playback continues without SR for that segment, and because
// the cache only ever records successful downloads, the label is retried
// lazily the next time a segment references it. The degraded counters
// surface as the obs metrics degraded_segments_total and
// model_fetch_failures_total. See docs/OPERATIONS.md for the full
// failure-mode catalogue and DESIGN.md for the retry/degrade state
// machine.
//
// Session.Source is the one delivery seam: core.PlaySource, the playback
// engine behind core.Player and transport.Client, installs one that
// reports the bytes each real delivery moved (Download). A nil Source
// simulates every fetch at its manifest-declared size.
//
// A Session is single-goroutine, like the transport.Client that usually
// backs its Source: segments are walked strictly in order, one at a
// time.
package stream

import (
	"fmt"
	"sort"

	"dcsr/internal/modelstore"
	"dcsr/internal/obs"
)

// SegmentInfo describes one video segment in a manifest.
type SegmentInfo struct {
	Index      int
	Start, End int // frame range [Start, End)
	Bytes      int // serialized segment size
	ModelLabel int // micro model this segment needs; -1 for none
}

// ModelInfo describes one downloadable micro model.
type ModelInfo struct {
	Label int
	Bytes int
	// Int8 reports that the model passed the server-side int8
	// calibration quality gate: its manifest entry ships activation
	// scales and the client may run it on the quantized kernel path.
	// False (including manifests from servers predating the field)
	// keeps the client on float32.
	Int8 bool `json:"int8,omitempty"`
	// ActScales are the per-conv activation quantization scales the
	// server calibrated from the cluster's own frames; a client feeds
	// them to Model.CalibrateFromScales to arm the int8 path
	// bit-identically to the origin. Only set when Int8 is true.
	ActScales []float32 `json:"act_scales,omitempty"`
	// Delta marks a model shipped as a dcW5 delta against the manifest's
	// shared backbone: Bytes is the delta payload (the wire download),
	// and the client assembles the full weights locally. False (including
	// manifests from servers predating the field) means Bytes is the
	// complete serialized model.
	Delta bool `json:"delta,omitempty"`
	// BackboneDigest is the hex SHA-256 of the backbone payload the delta
	// was encoded against; it must match Backbone.Digest. Only set when
	// Delta is true.
	BackboneDigest string `json:"backbone_digest,omitempty"`
	// Digest is the hex SHA-256 of the full serialized weights, letting a
	// client verify an assembled (or fetched) model before arming it.
	Digest string `json:"digest,omitempty"`
	// FullBytes is the size of the complete serialized model when Delta
	// is true (what a fallback full fetch downloads); zero otherwise.
	FullBytes int `json:"full_bytes,omitempty"`
}

// BackboneInfo describes the shared backbone model the manifest's delta
// entries are encoded against. The backbone is itself one of the cluster
// models (Label), fetched at most once per session via its own wire op.
type BackboneInfo struct {
	Label  int    `json:"label"`
	Digest string `json:"digest"` // hex SHA-256 of the backbone payload
	Bytes  int    `json:"bytes"`
}

// Manifest is the per-video index a dcSR client downloads first: the
// segment list (HashMap_L of Algorithm 1 is the Segment→ModelLabel
// mapping) and the model directory.
type Manifest struct {
	Segments []SegmentInfo
	Models   map[int]ModelInfo
	// Backbone, when non-nil, is the shared model that every Delta entry
	// in Models is encoded against (the model-stream representation);
	// nil means every model ships complete.
	Backbone *BackboneInfo
}

// Validate checks internal consistency: frame ranges must be non-empty,
// model references must resolve, segment sizes must be non-negative,
// every model must have a positive payload (a zero- or negative-byte
// model is undeserializable and would silently corrupt the byte
// accounting the bandwidth experiments depend on), segment indices must
// be unique, and each Models entry's Label must match its map key. The
// last two guard against silent shadowing: duplicate indices or
// mislabeled models would make lookups quietly resolve to the wrong
// payload instead of failing.
func (m *Manifest) Validate() error {
	seen := make(map[int]bool, len(m.Segments))
	for _, s := range m.Segments {
		if seen[s.Index] {
			return fmt.Errorf("stream: duplicate segment index %d", s.Index)
		}
		seen[s.Index] = true
		if s.ModelLabel >= 0 {
			if _, ok := m.Models[s.ModelLabel]; !ok {
				return fmt.Errorf("stream: segment %d references unknown model %d", s.Index, s.ModelLabel)
			}
		}
		if s.End <= s.Start {
			return fmt.Errorf("stream: segment %d has empty frame range", s.Index)
		}
		if s.Bytes < 0 {
			return fmt.Errorf("stream: segment %d has negative size %d", s.Index, s.Bytes)
		}
	}
	if b := m.Backbone; b != nil {
		if b.Digest == "" || b.Bytes <= 0 {
			return fmt.Errorf("stream: backbone missing digest or size")
		}
		if _, ok := m.Models[b.Label]; !ok {
			return fmt.Errorf("stream: backbone label %d has no model entry", b.Label)
		}
	}
	for label, mi := range m.Models {
		if mi.Label != label {
			return fmt.Errorf("stream: model keyed %d carries label %d", label, mi.Label)
		}
		if mi.Bytes <= 0 {
			return fmt.Errorf("stream: model %d has non-positive size %d", label, mi.Bytes)
		}
		if mi.Delta {
			if m.Backbone == nil {
				return fmt.Errorf("stream: delta model %d but manifest carries no backbone", label)
			}
			if mi.BackboneDigest != m.Backbone.Digest {
				return fmt.Errorf("stream: delta model %d references backbone digest %.12s absent from the manifest", label, mi.BackboneDigest)
			}
			if mi.Digest == "" || mi.FullBytes <= 0 {
				return fmt.Errorf("stream: delta model %d missing full-payload digest or size", label)
			}
		}
	}
	return nil
}

// TotalVideoBytes sums all segment payloads.
func (m *Manifest) TotalVideoBytes() int {
	n := 0
	for _, s := range m.Segments {
		n += s.Bytes
	}
	return n
}

// TotalModelBytes sums the unique model payloads.
func (m *Manifest) TotalModelBytes() int {
	n := 0
	for _, mi := range m.Models {
		n += mi.Bytes
	}
	return n
}

// ModelLabels returns the sorted distinct model labels.
func (m *Manifest) ModelLabels() []int {
	labels := make([]int, 0, len(m.Models))
	for l := range m.Models {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	return labels
}

// Event records one segment step of a session walk-through (the rows of
// paper Fig 7).
type Event struct {
	Segment         int
	ModelLabel      int
	ModelDownloaded bool // false = cache hit, no model needed, or degraded
	SegmentBytes    int
	ModelBytes      int
	// Degraded marks a segment whose model fetch failed: it plays without
	// SR and its label stays uncached so the next reference retries.
	Degraded bool
	// Evicted lists the labels the model's cache insertion evicted to
	// stay within the byte budget.
	Evicted []int
}

// Download is one model delivery as a Source performed it. Data is what
// the cache keeps: the wire unit (a delta, the backbone payload for the
// backbone's own label, or the complete weights). Backbone, Delta and
// Full are the bytes moved by kind; they are charged even when the
// delivery failed (a backbone fetched before its delta failed was paid).
type Download struct {
	Data                  []byte
	Backbone, Delta, Full int
}

// Session simulates a client streaming session: segments are downloaded in
// order and each segment's micro model is fetched only on cache miss
// (Algorithm 1). The cache holds real model bytes under a byte budget
// (modelstore.BoundedCache): when the budget is exceeded the
// least-recently-used model is evicted, and an evicted label's next
// reference re-fetches it lazily — same retry path as a degraded fetch,
// driven by capacity instead of failure. The zero value is not usable;
// call NewSession or NewSessionWithBudget.
type Session struct {
	manifest *Manifest
	cache    *modelstore.BoundedCache

	// Obs receives cache hit/miss and byte counters
	// (segments_fetched_total and its rolling-window twin
	// segments_fetched_window_total, cache_hits_total,
	// cache_misses_total, video_bytes_total, model_bytes_total); nil
	// disables them.
	Obs *obs.Obs
	// Trace, when set, receives one "segment_fetch" child span per Step
	// (the rows of paper Fig 7 as a trace).
	Trace *obs.Span

	Events     []Event
	VideoBytes int
	ModelBytes int
	// BackboneBytes, DeltaModelBytes and FullModelBytes break ModelBytes
	// down for manifests carrying a model stream: the shared backbone is
	// downloaded once per session (BackboneBytes), delta entries cost
	// their delta payloads (DeltaModelBytes), and everything else —
	// including every model of a backbone-less manifest — is a complete
	// download (FullModelBytes). The three always sum to ModelBytes.
	BackboneBytes   int
	DeltaModelBytes int
	FullModelBytes  int
	CacheHits       int
	// CacheMisses counts segments whose model had to be downloaded
	// (kept separate from Downloads so hit+miss covers exactly the
	// segments that needed a model; with a Source the two differ by the
	// failed attempts, which are misses but not downloads).
	CacheMisses int
	// Downloads counts successful model downloads.
	Downloads int

	// Source, when set, performs the model delivery of each cache miss.
	// An error degrades the segment (it plays without SR; counted in
	// DegradedSegments, model_fetch_failures_total and
	// degraded_segments_total) and leaves the label uncached, so its next
	// reference retries lazily. With a backbone in the manifest the cache
	// then meters content-defined chunks (BoundedCache.EnableChunked). A
	// nil Source simulates: instant success at the manifest-declared
	// size, a placeholder of that size cached with whole-payload
	// accounting (zero-filled placeholders would dedupe to nothing).
	Source func(label int) (Download, error)
	// DegradedSegments counts segments whose model fetch failed.
	DegradedSegments int

	// backboneFetched records that a simulated session already paid for
	// the shared backbone; every later model assembled from it is free of
	// that cost (the model-stream accounting).
	backboneFetched bool
	started         bool // the first Step chose the cache accounting
}

// NewSession starts a session over manifest. When useCache is false every
// segment re-downloads its model (the ablation of paper §3.2.2). Caching
// is unbounded, the paper's Algorithm 1 behaviour; use
// NewSessionWithBudget to bound it.
func NewSession(m *Manifest, useCache bool) (*Session, error) {
	budget := int64(-1)
	if !useCache {
		budget = 0
	}
	return NewSessionWithBudget(m, budget)
}

// NewSessionWithBudget starts a session whose model cache holds at most
// budget bytes of serialized weights (budget < 0 → unbounded, the
// Algorithm 1 default; 0 → caching disabled, the §3.2.2 ablation; > 0 →
// LRU eviction past the budget).
func NewSessionWithBudget(m *Manifest, budget int64) (*Session, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Session{manifest: m, cache: modelstore.NewBoundedCache(budget)}, nil
}

// Run walks every segment in order, applying Algorithm 1, and returns the
// total bytes transferred.
func (s *Session) Run() int {
	for _, seg := range s.manifest.Segments {
		s.Step(seg)
	}
	return s.TotalBytes()
}

// Step processes one segment: download the segment, then fetch its model
// if it is not cached (Algorithm 1 lines 3–6). It records into its own
// "segment_fetch" child span of Trace.
func (s *Session) Step(seg SegmentInfo) Event {
	sp := s.Trace.Child("segment_fetch")
	sp.Set("segment", seg.Index)
	ev := s.StepIn(sp, seg)
	sp.End()
	return ev
}

// StepIn is Step recording into sp, a span the caller opened and ends. A
// playback engine downloads the segment under sp first, so the segment
// and model fetches of one step share one segment_fetch span.
func (s *Session) StepIn(sp *obs.Span, seg SegmentInfo) Event {
	s.cache.Obs = s.Obs // single-goroutine session; keep the cache's registry in sync
	if !s.started {
		s.started = true
		if s.Source != nil && s.manifest.Backbone != nil {
			s.cache.EnableChunked()
		}
	}
	ev := Event{Segment: seg.Index, ModelLabel: seg.ModelLabel, SegmentBytes: seg.Bytes}
	s.VideoBytes += seg.Bytes
	s.Obs.Counter("segments_fetched_total").Inc()
	s.Obs.WindowedCounter("segments_fetched_window_total").Inc()
	s.Obs.Counter("video_bytes_total").Add(int64(seg.Bytes))
	if seg.ModelLabel >= 0 {
		if _, hit := s.cache.Get(seg.ModelLabel); hit {
			s.CacheHits++
			s.Obs.Counter("cache_hits_total").Inc()
			sp.Set("cache", "hit")
		} else {
			s.CacheMisses++
			s.Obs.Counter("cache_misses_total").Inc()
			var d Download
			var err error
			if s.Source != nil {
				d, err = s.Source(seg.ModelLabel)
			} else {
				d = s.simulate(seg.ModelLabel)
			}
			ev.ModelBytes = s.charge(d)
			if err != nil {
				// Degrade instead of aborting: the segment plays
				// without SR and the label stays uncached so its next
				// reference retries the fetch (Algorithm 1's cache
				// only ever holds successful downloads).
				ev.Degraded = true
				s.DegradedSegments++
				s.Obs.Counter("model_fetch_failures_total").Inc()
				s.Obs.Counter("degraded_segments_total").Inc()
				sp.Set("cache", "degraded")
			} else {
				ev.ModelDownloaded = true
				s.Downloads++
				sp.Set("cache", "miss")
				sp.Set("model_bytes", ev.ModelBytes)
				if ev.Evicted = s.cache.Put(seg.ModelLabel, d.Data); len(ev.Evicted) > 0 {
					sp.Set("evicted", len(ev.Evicted))
				}
			}
		}
	}
	s.Events = append(s.Events, ev)
	return ev
}

// simulate is the nil-Source delivery. A delta entry's first delivery
// also pulls the backbone; the backbone's own label is free once the
// backbone is in hand.
func (s *Session) simulate(label int) Download {
	mi := s.manifest.Models[label]
	d := Download{Data: make([]byte, mi.Bytes)}
	bb := s.manifest.Backbone
	switch {
	case mi.Delta:
		if !s.backboneFetched {
			s.backboneFetched = true
			d.Backbone = bb.Bytes
		}
		d.Delta = mi.Bytes
	case bb != nil && label == bb.Label:
		if !s.backboneFetched {
			s.backboneFetched = true
			d.Backbone = mi.Bytes
		}
	default:
		d.Full = mi.Bytes
	}
	return d
}

// charge books the bytes one delivery moved and returns their sum.
func (s *Session) charge(d Download) int {
	cost := d.Backbone + d.Delta + d.Full
	if d.Backbone > 0 {
		s.BackboneBytes += d.Backbone
		s.Obs.Counter("modelstream_backbone_fetch_total").Inc()
	}
	if d.Delta > 0 {
		s.DeltaModelBytes += d.Delta
		s.Obs.Counter("modelstream_delta_bytes_total").Add(int64(d.Delta))
	}
	s.FullModelBytes += d.Full
	s.ModelBytes += cost
	if cost > 0 {
		s.Obs.Counter("model_bytes_total").Add(int64(cost))
	}
	return cost
}

// TotalBytes returns video + model bytes transferred so far.
func (s *Session) TotalBytes() int { return s.VideoBytes + s.ModelBytes }

// CacheContents returns the sorted labels currently cached.
func (s *Session) CacheContents() []int {
	labels := s.cache.Labels()
	if len(labels) == 0 {
		return nil
	}
	return labels
}

// CacheBytes returns the serialized model bytes currently resident in
// the cache.
func (s *Session) CacheBytes() int64 { return s.cache.Bytes() }

// Evictions returns how many cached models were evicted to stay within
// the byte budget.
func (s *Session) Evictions() int { return s.cache.Evictions }
