package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// Client fetches a dcSR stream over a connection. It is not safe for
// concurrent use: the protocol is strictly request/response per
// connection, so exactly one goroutine may drive a Client at a time —
// open one client per goroutine. (The Server side is concurrent; the
// single-goroutine contract is per client connection.)
//
// The zero-configured client fails on the first I/O error, like the
// original implementation. Set Retry and Redial to survive flaky links:
// failed exchanges are retried with exponential backoff on a freshly
// dialed connection, per-request deadlines bound slow responses, and
// Play degrades gracefully when a micro-model fetch ultimately fails
// (the affected segments play unenhanced instead of aborting playback).
type Client struct {
	conn io.ReadWriter
	// broken marks the connection desynchronized after an I/O failure:
	// a response may still be in flight, so the next exchange must
	// reconnect before writing.
	broken bool

	// BytesDown counts payload plus framing bytes received.
	BytesDown int
	// BytesUp counts request bytes sent.
	BytesUp int

	// retrier holds the exported Retries, Timeouts, Reconnects, Sheds
	// and StallTime counters alongside the jitter PRNG and backoff sleep.
	retrier

	// Retry configures per-request deadlines and retry/backoff; the
	// zero value reproduces the original fail-fast behaviour.
	Retry RetryPolicy
	// Redial, when set, re-establishes the connection after an I/O
	// failure (the previous connection is closed when it implements
	// io.Closer). Without it, transport-level failures are fatal.
	Redial func() (io.ReadWriter, error)

	// CacheBudget bounds Play's micro-model cache in bytes of serialized
	// weights: past the budget the least-recently-used model is evicted
	// and its next reference re-downloads it (PlayStats.Evictions). 0 or
	// negative (the default) leaves the cache unbounded — the paper's
	// Algorithm 1 behaviour.
	CacheBudget int64
	// NoInt8 keeps Play on the float32 enhancement path even for models
	// whose manifest entry advertises int8 calibration (the precision
	// ablation). The default serves every int8-gated model on the
	// quantized kernels, armed with the origin's activation scales from
	// the manifest (ModelInfo.ActScales) so client and origin produce
	// bit-identical pixels.
	NoInt8 bool

	// Log receives request failures and per-segment debug lines; nil
	// (the default) discards them — previously client errors were
	// silent.
	Log *obs.Logger
	// Obs records transport_client_requests_total,
	// transport_client_bytes_up/down_total, the fault-tolerance
	// counters transport_client_{retries,timeouts,reconnects}_total,
	// the admission-shed counter transport_client_shed_total, the
	// model-stream counters modelstream_backbone_fetch_total,
	// modelstream_delta_bytes_total and modelstream_fallback_total
	// (manifests advertising a backbone only), and per-exchange
	// round-trip latency as both the lifetime
	// transport_client_rtt_seconds histogram and its rolling-window
	// twin transport_client_rtt_window_seconds; nil disables metrics.
	Obs *obs.Obs

	// TraceWire enables traced ('dcT2') request frames. ManifestCtx
	// sets it automatically when the server's manifest advertises
	// WireManifest.Trace; it stays false against an older server, so
	// every frame remains backward compatible. Tests (or callers that
	// negotiated capability out of band) may set it directly.
	TraceWire bool
	// MuxWire enables multiplexed ('dcT3') request frames — the framing
	// that carries Video routing. Unlike TraceWire it is NOT switched on
	// merely because the server advertises WireManifest.Mux: a client
	// streaming the default video keeps the classic framing it always
	// spoke (so frame-level tooling and wire-sniffing fault hooks see no
	// change), and SelectVideoCtx upgrades lazily the moment a
	// non-default video actually needs routing. The sequential Client
	// still issues one request at a time; MuxWire here buys video
	// routing and the mux response framing, not pipelining (see
	// MuxClient for that).
	MuxWire bool
	// Video routes requests at one of a multi-video server's hosted
	// streams (0, the default, is the first video registered). Set it via
	// SelectVideoCtx, or directly from a WireDirectory entry's ID.
	// Nonzero Video requires MuxWire — classic frames carry no routing.
	Video uint32
	// Trace, when non-nil, is the client-side span wire traces hang
	// off: every roundTrip opens an attempt-numbered child span under
	// it and — when TraceWire is set — stamps that child's identity
	// into the request frame, so the server span parents to the exact
	// attempt that reached it. A span carried by the request's ctx
	// (obs.ContextWithSpan) takes precedence: Play parents its requests
	// that way (the client_play root for the manifest, the per-segment
	// span for segment and model fetches). Callers driving raw requests
	// may set Trace around any exchange.
	Trace *obs.Span

	nextID uint32 // mux request ID counter
	muxOK  bool   // server advertised Mux (learned at manifest)
	// gate, when set, injects model-fetch failures into Play
	// (core.GateModels); tests use it to fail the wire source exactly as
	// they fail a local one.
	gate func(label int) error
}

// NewClient wraps an established connection (TCP, net.Pipe, throttled,
// fault-injected…).
func NewClient(conn io.ReadWriter) *Client { return &Client{conn: conn} }

// Dial connects to a Server over TCP.
func Dial(addr string) (*Client, net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	return NewClient(conn), conn, nil
}

// reconnect replaces a broken connection through Redial, closing the old
// one so the peer's stale handler can unwind.
func (c *Client) reconnect() error {
	if c.Redial == nil {
		return errors.New("transport: connection broken and no Redial configured")
	}
	if cl, ok := c.conn.(io.Closer); ok {
		//lint:allow errcheck the conn is already known broken; closing is best-effort unwinding and the caller is about to redial
		cl.Close()
	}
	conn, err := c.Redial()
	if err != nil {
		c.Log.Error("transport: redial failed", "err", err)
		return fmt.Errorf("transport: redial: %w", err)
	}
	c.conn = conn
	c.broken = false
	c.count(&c.Reconnects)
	c.Obs.Counter("transport_client_reconnects_total").Inc()
	c.Log.Info("transport: reconnected", "reconnects", c.Reconnects)
	return nil
}

// attempt performs one request/response exchange, first reconnecting a
// broken connection through Redial, and frames it traced when tc
// carries a trace ID. Transport-level failures mark the connection
// broken; protocol rejections come back as *statusError with the
// connection still usable.
func (c *Client) attempt(_ context.Context, op byte, arg uint32, timeout time.Duration, tc TraceContext) ([]byte, error) {
	if c.broken {
		if err := c.reconnect(); err != nil {
			return nil, err
		}
	}
	if timeout > 0 {
		if d, ok := c.conn.(readDeadliner); ok {
			if err := d.SetReadDeadline(time.Now().Add(timeout)); err == nil {
				//lint:allow errcheck clearing a deadline can only fail on a conn that is already broken, which the exchange itself reports
				defer d.SetReadDeadline(time.Time{})
			}
		}
	}
	var t0 time.Time
	if c.Obs != nil {
		t0 = time.Now()
	}
	var err error
	var reqBytes int64
	var reqID uint32
	if c.MuxWire {
		c.nextID++
		reqID = c.nextID
		reqBytes = muxReqFrameBytes
		err = writeRequestMux(c.conn, op, arg, c.Video, reqID, tc)
	} else if tc.TraceID != 0 {
		reqBytes = tracedReqFrameBytes
		err = writeRequestTraced(c.conn, op, arg, tc)
	} else {
		reqBytes = reqFrameBytes
		err = writeRequest(c.conn, op, arg)
	}
	if err != nil {
		c.broken = true
		c.Log.Error("transport: client write failed", "op", opName(op), "arg", arg, "err", err)
		return nil, err
	}
	c.BytesUp += int(reqBytes)
	c.Obs.Counter("transport_client_requests_total").Inc()
	c.Obs.Counter("transport_client_bytes_up_total").Add(reqBytes)
	var status byte
	var payload []byte
	var respBytes int
	if c.MuxWire {
		var gotID uint32
		gotID, status, payload, err = readResponseMux(c.conn)
		if err == nil && gotID != reqID {
			// A sequential client has exactly one request outstanding, so
			// a mismatched ID means the stream is desynchronized.
			err = fmt.Errorf("transport: response for request %d, expected %d", gotID, reqID)
		}
		respBytes = muxRespFrameBytes + len(payload)
	} else {
		status, payload, err = readResponse(c.conn)
		respBytes = respFrameBytes + len(payload)
	}
	if err != nil {
		c.broken = true
		c.Log.Error("transport: client read failed", "op", opName(op), "arg", arg, "err", err)
		return nil, err
	}
	c.BytesDown += respBytes
	c.Obs.Counter("transport_client_bytes_down_total").Add(int64(respBytes))
	if c.Obs != nil {
		rtt := time.Since(t0).Seconds()
		c.Obs.Histogram("transport_client_rtt_seconds").Observe(rtt)
		c.Obs.WindowedHistogram("transport_client_rtt_window_seconds").Observe(rtt)
	}
	if status == StatusOK {
		return payload, nil
	}
	se := &statusError{op: op, arg: arg, status: status}
	if status == StatusRetryAfter {
		se.hint = parseRetryAfter(payload)
	}
	c.Log.Warn("transport: request failed", "op", opName(op), "arg", arg, "status", status)
	return nil, se
}

// roundTrip drives one request through the shared retrier with this
// client's attempt.
func (c *Client) roundTrip(ctx context.Context, op byte, arg uint32) ([]byte, error) {
	trace := c.Trace
	if sp := obs.SpanFromContext(ctx); sp != nil {
		trace = sp
	}
	return c.do(ctx, request{
		op: op, arg: arg, pol: c.Retry, obs: c.Obs, log: c.Log, trace: trace, wire: c.TraceWire, via: c,
	})
}

// Manifest fetches and parses the stream manifest.
func (c *Client) Manifest() (*WireManifest, error) {
	return c.ManifestCtx(context.Background())
}

// ManifestCtx is Manifest with per-request cancellation. It doubles as
// capability negotiation: when the server's manifest advertises trace
// support, TraceWire is switched on for every subsequent request (the
// first manifest request itself always goes out in the oldest framing
// the client currently speaks — capability is unknown until the reply
// arrives). Mux capability is only remembered here; the framing itself
// stays classic until SelectVideoCtx actually needs routing, so a
// default-video session is byte-for-byte the wire an old client speaks.
func (c *Client) ManifestCtx(ctx context.Context) (*WireManifest, error) {
	data, err := c.roundTrip(ctx, OpManifest, 0)
	if err != nil {
		return nil, err
	}
	wm, err := DecodeWireManifest(data)
	if err != nil {
		return nil, err
	}
	if wm.Trace {
		c.TraceWire = true
	}
	if wm.Mux {
		c.muxOK = true
	}
	return wm, nil
}

// Videos fetches the server's directory of hosted videos.
func (c *Client) Videos() (*WireDirectory, error) {
	return c.VideosCtx(context.Background())
}

// VideosCtx is Videos with per-request cancellation. OpVideos is served
// in any framing, but only a multi-video (Mux-advertising) server
// understands it — an older server answers StatusBadReq.
func (c *Client) VideosCtx(ctx context.Context) (*WireDirectory, error) {
	data, err := c.roundTrip(ctx, OpVideos, 0)
	if err != nil {
		return nil, err
	}
	return DecodeWireDirectory(data)
}

// SelectVideoCtx routes all subsequent requests at the hosted video with
// the given hex content digest, as listed in the OpVideos directory. The
// next ManifestCtx (and therefore PlayCtx) then fetches that video.
// Selecting a non-default video requires the server to speak mux framing
// — classic frames carry no routing — so call ManifestCtx first, or
// accept that only digest-of-video-0 can match before negotiation.
func (c *Client) SelectVideoCtx(ctx context.Context, digest string) error {
	dir, err := c.VideosCtx(ctx)
	if err != nil {
		return err
	}
	for _, v := range dir.Videos {
		if v.Digest != digest {
			continue
		}
		if v.ID != 0 && !c.MuxWire {
			if !c.muxOK {
				return fmt.Errorf("transport: video %s needs mux framing the server did not advertise", digest)
			}
			// Lazy upgrade: routing is the first thing that actually
			// needs mux frames, so this is where the framing switches.
			c.MuxWire = true
		}
		c.Video = v.ID
		c.Log.Debug("transport: video selected", "id", v.ID, "digest", digest)
		return nil
	}
	return fmt.Errorf("transport: video %s not hosted", digest)
}

// Segment fetches segment i as a decodable sub-stream.
func (c *Client) Segment(i int) (*codec.Stream, error) {
	return c.SegmentCtx(context.Background(), i)
}

// SegmentCtx is Segment with per-request cancellation.
func (c *Client) SegmentCtx(ctx context.Context, i int) (*codec.Stream, error) {
	data, err := c.roundTrip(ctx, OpSegment, uint32(i))
	if err != nil {
		return nil, err
	}
	return codec.Unmarshal(data)
}

// Model fetches and deserializes micro model label into a ready model of
// the given configuration, returning it with the payload size.
func (c *Client) Model(label int, cfg edsr.Config) (*edsr.Model, int, error) {
	return c.ModelCtx(context.Background(), label, cfg)
}

// ModelCtx is Model with per-request cancellation.
func (c *Client) ModelCtx(ctx context.Context, label int, cfg edsr.Config) (*edsr.Model, int, error) {
	data, err := c.roundTrip(ctx, OpModel, uint32(label))
	if err != nil {
		return nil, 0, err
	}
	m, err := edsr.New(cfg, 0)
	if err != nil {
		return nil, 0, err
	}
	if err := nn.LoadWeights(bytes.NewReader(data), m.Params()); err != nil {
		return nil, 0, fmt.Errorf("transport: model %d: %w", label, err)
	}
	return m, len(data), nil
}

// PlayStats summarizes a streamed playback session. Its fields mean
// what the same-named core.PlayResult fields mean — ModelDownloads is
// the session's successful downloads, Enhanced and EnhancedInt8 the
// decoder's enhanced I frames (the int8 subset) — and ModelBytes always
// equals BackboneBytes + DeltaModelBytes + FullModelBytes.
type PlayStats struct {
	Segments, ModelDownloads, CacheHits            int
	VideoBytes, ModelBytes                         int
	BackboneBytes, DeltaModelBytes, FullModelBytes int
	Enhanced, EnhancedInt8                         int
	DegradedSegments, Evictions                    int
	CacheBytes                                     int64
}

// Play streams the whole video through core.PlaySource: per segment,
// fetch the sub-stream, fetch its micro model on a cache miss (paper
// Algorithm 1), and decode with the model in the I-frame hook. With
// enhance=false it plays the raw stream and fetches no model. A segment
// (or manifest) fetch that fails after the retry budget aborts the
// session; a failed model fetch degrades its segment instead
// (stats.DegradedSegments), and the label's next reference retries.
func (c *Client) Play(enhance bool) ([]*video.YUV, *PlayStats, error) {
	return c.PlayCtx(context.Background(), enhance)
}

// PlayCtx is Play with cancellation: ctx aborts between requests and
// interrupts retry backoff immediately (see retrier for granularity).
func (c *Client) PlayCtx(ctx context.Context, enhance bool) ([]*video.YUV, *PlayStats, error) {
	root := c.Obs.Start("client_play")
	defer root.End()
	ctx = obs.ContextWithSpan(ctx, root)
	wm, err := c.ManifestCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	man := wm.Manifest()
	var src core.Source = wireSource{c}
	if c.gate != nil {
		src = core.GateModels(src, man, c.gate)
	}
	budget := c.CacheBudget
	if budget <= 0 {
		budget = -1 // CacheBudget's zero value means unbounded
	}
	res, err := core.PlaySource(ctx, src, core.PlayConfig{
		Manifest: man, Micro: wm.MicroConfig, Budget: budget,
		Enhance: enhance, Int8: !c.NoInt8, Propagation: codec.PropagateDelta,
		Obs: c.Obs, Log: c.Log, Trace: root,
	})
	if err != nil {
		return nil, nil, err
	}
	s := res.Session
	return res.Frames, &PlayStats{
		Segments: len(s.Events), ModelDownloads: s.Downloads, CacheHits: s.CacheHits,
		VideoBytes: s.VideoBytes, ModelBytes: s.ModelBytes,
		BackboneBytes: s.BackboneBytes, DeltaModelBytes: s.DeltaModelBytes, FullModelBytes: s.FullModelBytes,
		Enhanced: res.Decode.Enhanced, EnhancedInt8: res.Decode.EnhancedInt8,
		DegradedSegments: s.DegradedSegments, Evictions: s.Evictions(), CacheBytes: s.CacheBytes(),
	}, nil
}

// wireSource is the core.Source a Client plays from: one request per
// segment, complete model, backbone or delta.
type wireSource struct{ c *Client }

func (w wireSource) Segment(ctx context.Context, i int) (*codec.Stream, error) {
	return w.c.SegmentCtx(ctx, i)
}

func (w wireSource) Model(ctx context.Context, label int) ([]byte, error) {
	return w.c.roundTrip(ctx, OpModel, uint32(label))
}

func (w wireSource) Backbone(ctx context.Context) ([]byte, error) {
	return w.c.roundTrip(ctx, OpBackbone, 0)
}

func (w wireSource) Delta(ctx context.Context, label int) ([]byte, error) {
	return w.c.roundTrip(ctx, OpModelDelta, uint32(label))
}
