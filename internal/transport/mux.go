package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dcsr/internal/obs"
)

// MuxClient multiplexes many concurrent requests over one connection
// using 'dcT3' framing: requests are pipelined (written as they arrive,
// tagged with unique IDs) and responses are matched back by ID, so N
// goroutines share one TCP connection instead of opening N. It is safe
// for concurrent use — the concurrency contract is the whole point.
//
// Construction dials through the given dial function and performs a
// classic-framing manifest probe to negotiate capability; a server that
// does not advertise WireManifest.Mux is rejected with ErrNoMux (use the
// sequential Client against old servers). The same probe runs again on
// every reconnect.
//
// Requests go through the retrier the sequential Client uses (see Do):
// a transport error retires the connection and the retry redials. A
// request timeout does NOT break the connection — the late response is
// discarded by ID — which makes per-request deadlines cheap under
// pipelining.
type MuxClient struct {
	// Retry configures per-request deadlines, retry/backoff and the shed
	// budget, exactly as on Client.
	Retry RetryPolicy
	// Log receives request failures and reconnect lines; nil discards.
	Log *obs.Logger
	// Obs records the transport_client_* metric surface (requests, bytes
	// up/down, rtt + windowed rtt, retries, timeouts, reconnects, shed);
	// nil disables metrics.
	Obs *obs.Obs

	dial func() (io.ReadWriter, error)

	// dialMu serializes reconnects so a burst of concurrent failures
	// produces one fresh connection, not one per waiter.
	dialMu sync.Mutex

	mu     sync.Mutex
	cur    *muxConn
	wm     *WireManifest
	nextID uint32
	closed bool

	r retrier // the retry counters and the jitter PRNG

	stats struct {
		sync.Mutex
		bytesUp, bytesDown int64
	}
}

// ErrNoMux reports a server that answered the negotiation probe without
// advertising mux support.
var ErrNoMux = errors.New("transport: server does not support multiplexing")

// muxConn is one live multiplexed connection: the wire, a write lock
// serializing frames, and the pending table the reader goroutine resolves
// responses against. A muxConn is abandoned (never repaired) on the first
// transport error; MuxClient dials a fresh one.
type muxConn struct {
	rw  io.ReadWriter
	wmu sync.Mutex

	pmu     sync.Mutex
	pending map[uint32]chan muxResult
	dead    bool
	done    chan struct{}
}

type muxResult struct {
	status  byte
	payload []byte
	err     error
}

// register adds a pending entry; it fails if the reader has already
// exited, so no request can wait on a connection nobody is reading.
func (mc *muxConn) register(id uint32, ch chan muxResult) error {
	mc.pmu.Lock()
	defer mc.pmu.Unlock()
	if mc.dead {
		return errors.New("transport: mux connection is down")
	}
	mc.pending[id] = ch
	return nil
}

// unregister abandons a pending entry (timeout / cancellation); a late
// response for it is discarded by the reader.
func (mc *muxConn) unregister(id uint32) {
	mc.pmu.Lock()
	delete(mc.pending, id)
	mc.pmu.Unlock()
}

// deliver hands one response to its waiter; unmatched IDs (abandoned by
// timeout) are dropped on the floor.
func (mc *muxConn) deliver(id uint32, status byte, payload []byte) {
	mc.pmu.Lock()
	ch, ok := mc.pending[id]
	delete(mc.pending, id)
	mc.pmu.Unlock()
	if ok {
		ch <- muxResult{status: status, payload: payload} // buffered, never blocks
	}
}

// fail marks the connection dead and errors out every waiter.
func (mc *muxConn) fail(err error) {
	mc.pmu.Lock()
	mc.dead = true
	for id, ch := range mc.pending {
		delete(mc.pending, id)
		ch <- muxResult{err: err} // buffered, never blocks
	}
	mc.pmu.Unlock()
}

// DialMux establishes a multiplexed client through dial, which is kept
// for reconnects (like Client.Redial, but mandatory — a mux client that
// cannot redial would strand every pipelined request on the first
// fault). The returned client has already negotiated: its WireManifest
// is available via Manifest.
func DialMux(dial func() (io.ReadWriter, error)) (*MuxClient, error) {
	m := &MuxClient{dial: dial}
	if _, err := m.connect(); err != nil {
		return nil, err
	}
	return m, nil
}

// Manifest returns the default video's manifest captured by the most
// recent negotiation probe.
func (m *MuxClient) Manifest() *WireManifest {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wm
}

// Close tears down the current connection; in-flight requests fail and
// later requests return net.ErrClosed-style errors rather than redialing.
func (m *MuxClient) Close() error {
	m.mu.Lock()
	mc := m.cur
	m.cur = nil
	m.closed = true
	m.mu.Unlock()
	if mc == nil {
		return nil
	}
	var err error
	if cl, ok := mc.rw.(io.Closer); ok {
		err = cl.Close()
	}
	return err
}

// connect dials a fresh connection, runs the classic-framing negotiation
// probe, and on success installs the connection with its reader
// goroutine. Callers must NOT hold m.mu.
func (m *MuxClient) connect() (*muxConn, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("transport: mux client is closed")
	}
	m.mu.Unlock()
	rw, err := m.dial()
	if err != nil {
		return nil, fmt.Errorf("transport: mux dial: %w", err)
	}
	closeIt := func() {
		if cl, ok := rw.(io.Closer); ok {
			//lint:allow errcheck the probe already failed; closing the unusable conn is best-effort cleanup
			cl.Close()
		}
	}
	// The probe is one classic sequential exchange, legal because nothing
	// else can be outstanding on a brand-new connection. It both checks
	// liveness and fetches the capability bits.
	if err := writeRequest(rw, OpManifest, 0); err != nil {
		closeIt()
		return nil, fmt.Errorf("transport: mux probe: %w", err)
	}
	status, payload, err := readResponse(rw)
	if err != nil {
		closeIt()
		return nil, fmt.Errorf("transport: mux probe: %w", err)
	}
	m.addBytes(reqFrameBytes, int64(respFrameBytes+len(payload)))
	if status != StatusOK {
		closeIt()
		return nil, fmt.Errorf("transport: mux probe: manifest status %d", status)
	}
	wm, err := DecodeWireManifest(payload)
	if err != nil {
		closeIt()
		return nil, err
	}
	if !wm.Mux {
		closeIt()
		return nil, ErrNoMux
	}
	mc := &muxConn{rw: rw, pending: make(map[uint32]chan muxResult), done: make(chan struct{})}
	go func() {
		defer close(mc.done)
		for {
			id, status, payload, err := readResponseMux(rw)
			if err != nil {
				mc.fail(err)
				return
			}
			mc.deliver(id, status, payload)
		}
	}()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		closeIt()
		<-mc.done
		return nil, errors.New("transport: mux client is closed")
	}
	m.cur = mc
	m.wm = wm
	m.mu.Unlock()
	return mc, nil
}

// conn returns the live connection, dialing one if the current one is
// gone. stale names the connection the caller just watched die, so
// concurrent failures retire it once and then pile onto the single
// reconnect behind dialMu.
func (m *MuxClient) conn(stale *muxConn) (*muxConn, error) {
	m.mu.Lock()
	mc := m.cur
	if mc != nil && mc != stale {
		m.mu.Unlock()
		return mc, nil
	}
	if mc == stale && mc != nil {
		m.cur = nil
		if cl, ok := mc.rw.(io.Closer); ok {
			//lint:allow errcheck the conn is already known broken; closing is best-effort unwinding before redial
			cl.Close()
		}
	}
	m.mu.Unlock()
	m.dialMu.Lock()
	defer m.dialMu.Unlock()
	// Another waiter may have finished the reconnect while this one
	// queued on dialMu.
	m.mu.Lock()
	if m.cur != nil {
		mc := m.cur
		m.mu.Unlock()
		return mc, nil
	}
	m.mu.Unlock()
	fresh, err := m.connect()
	if err != nil {
		return nil, err
	}
	m.r.count(&m.r.Reconnects)
	m.Obs.Counter("transport_client_reconnects_total").Inc()
	m.Log.Info("transport: mux reconnected")
	return fresh, nil
}

func (m *MuxClient) addBytes(up, down int64) {
	m.stats.Lock()
	m.stats.bytesUp += up
	m.stats.bytesDown += down
	m.stats.Unlock()
	m.Obs.Counter("transport_client_bytes_up_total").Add(up)
	m.Obs.Counter("transport_client_bytes_down_total").Add(down)
}

// exchange performs one pipelined request/response on the current
// connection. Timeouts abandon the pending entry without killing the
// connection; transport errors return the dead muxConn so the retry
// layer can route its reconnect.
func (m *MuxClient) exchange(ctx context.Context, op byte, arg, video uint32, timeout time.Duration, stale *muxConn) ([]byte, *muxConn, error) {
	mc, err := m.conn(stale)
	if err != nil {
		return nil, stale, err
	}
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.mu.Unlock()
	ch := make(chan muxResult, 1)
	if err := mc.register(id, ch); err != nil {
		return nil, mc, err
	}
	mc.wmu.Lock()
	err = writeRequestMux(mc.rw, op, arg, video, id, TraceContext{})
	mc.wmu.Unlock()
	if err != nil {
		mc.unregister(id)
		return nil, mc, err
	}
	m.addBytes(muxReqFrameBytes, 0)
	m.Obs.Counter("transport_client_requests_total").Inc()
	var t0 time.Time
	if m.Obs != nil {
		t0 = time.Now()
	}
	var timer *time.Timer
	var expire <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		expire = timer.C
	}
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, mc, res.err
		}
		m.addBytes(0, muxRespFrameBytes+int64(len(res.payload)))
		if m.Obs != nil {
			rtt := time.Since(t0).Seconds()
			m.Obs.Histogram("transport_client_rtt_seconds").Observe(rtt)
			m.Obs.WindowedHistogram("transport_client_rtt_window_seconds").Observe(rtt)
		}
		if res.status == StatusOK {
			return res.payload, mc, nil
		}
		se := &statusError{op: op, arg: arg, status: res.status}
		if res.status == StatusRetryAfter {
			se.hint = parseRetryAfter(res.payload)
		}
		return nil, mc, se
	case <-ctx.Done():
		mc.unregister(id)
		return nil, mc, ctx.Err()
	case <-expire:
		mc.unregister(id)
		// The connection itself is fine — the response will be discarded
		// by ID — so this is NOT routed through reconnect.
		return nil, mc, errTimeout
	}
}

// errTimeout is the mux client's per-request deadline expiry. The
// retrier counts it as a timeout (it wraps os.ErrDeadlineExceeded) and
// retries it as a transport failure, but it does not poison the
// connection.
var errTimeout = fmt.Errorf("transport: request timed out: %w", os.ErrDeadlineExceeded)

// Do performs one request against the given video through the shared
// retrier — the MuxClient counterpart of the sequential client's
// roundTrip. It is safe to call from any number of goroutines.
func (m *MuxClient) Do(ctx context.Context, op byte, arg, video uint32) ([]byte, error) {
	return m.r.do(ctx, request{op: op, arg: arg, pol: m.Retry, obs: m.Obs, log: m.Log, via: &muxCall{m: m, video: video}})
}

// muxCall is one Do call's attempter: a transport failure retires the
// connection it happened on so the retry redials, while a timeout keeps
// the connection (the late response is discarded by ID).
type muxCall struct {
	m     *MuxClient
	video uint32
	stale *muxConn
}

func (c *muxCall) attempt(ctx context.Context, op byte, arg uint32, timeout time.Duration, _ TraceContext) ([]byte, error) {
	payload, mc, err := c.m.exchange(ctx, op, arg, c.video, timeout, c.stale)
	var se *statusError
	if err != nil && !errors.As(err, &se) && !errors.Is(err, errTimeout) {
		c.stale = mc
	}
	return payload, err
}

// MuxStats is a point-in-time snapshot of a MuxClient's accounting,
// mirroring the sequential Client's exported counter fields.
type MuxStats struct {
	Retries    int
	Timeouts   int
	Reconnects int
	Sheds      int
	BytesUp    int64
	BytesDown  int64
}

// Stats snapshots the client's counters.
func (m *MuxClient) Stats() MuxStats {
	m.r.mu.Lock()
	st := MuxStats{Retries: m.r.Retries, Timeouts: m.r.Timeouts, Reconnects: m.r.Reconnects, Sheds: m.r.Sheds}
	m.r.mu.Unlock()
	m.stats.Lock()
	defer m.stats.Unlock()
	st.BytesUp, st.BytesDown = m.stats.bytesUp, m.stats.bytesDown
	return st
}
