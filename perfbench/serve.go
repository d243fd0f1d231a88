package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/transport"
)

// Request kinds of a serve walk.
const (
	opVideos = iota
	opManifest
	opSegment
	opModel
	numOps
)

var opNames = [numOps]string{"videos", "manifest", "segment", "model"}

// serveConn is what one load connection measured in one slice.
type serveConn struct {
	lat            [numOps][]float64 // request latency in ms, by kind
	done           int               // requests completed before the slice's deadline
	bytes          int               // request plus response bytes on the wire
	retries, sheds int
	failures       []string
	attempted      int // requests sent
}

// serveRun accumulates the serve slices of one half of a run.
type serveRun struct {
	lat                   [numOps][]float64 // request latency in ms, by kind
	rates                 []float64         // requests completed per second, by slice
	bytes, retries, sheds int
	mallocs               uint64 // heap allocations during the slices; traced halves only
	gcPause               time.Duration
	gcs                   uint32
}

func (r *serveRun) allLatencies() []float64 {
	var all []float64
	for _, l := range r.lat {
		all = append(all, l...)
	}
	return all
}

func (r *serveRun) requests() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// rps is the median over the slices of the requests completed per
// second, so a burst of load from outside the benchmark that slows a few
// slices does not move it.
func (r *serveRun) rps() float64 { return median(r.rates) }

// serveOnce is one slice of the origin operator's load: b.sz.conns
// connections, each a sequential transport.Client in a closed loop on a
// fresh connection, walk the titles hosted at addr for b.sz.slice. With
// o (a traced half), the clients report into o and the slice's heap
// allocations and GC pauses are counted.
func serveOnce(b *bench, addr string, titles []*title, tr *tracer, o *obs.Obs, run *serveRun) {
	withMem := o != nil
	var before, after runtime.MemStats
	if withMem {
		runtime.ReadMemStats(&before)
	}
	conns := make([]*serveConn, b.sz.conns)
	var wg sync.WaitGroup
	deadline := time.Now().Add(b.sz.slice)
	for g := range conns {
		sc := &serveConn{}
		conns[g] = sc
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			serveLoad(addr, titles, g+len(run.rates), deadline, tr, o, sc)
		}(g)
	}
	wg.Wait()
	if withMem {
		runtime.ReadMemStats(&after)
		run.mallocs += after.Mallocs - before.Mallocs
		run.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		run.gcs += after.NumGC - before.NumGC
	}
	var done int
	for _, sc := range conns {
		for op := range run.lat {
			run.lat[op] = append(run.lat[op], sc.lat[op]...)
		}
		done += sc.done
		run.bytes += sc.bytes
		run.retries += sc.retries
		run.sheds += sc.sheds
		b.attempted += sc.attempted
		for _, f := range sc.failures {
			b.fail("%s", f)
		}
	}
	run.rates = append(run.rates, float64(done)/b.sz.slice.Seconds())
}

// serveLoad is one connection's closed loop: walk after walk, starting
// at title g and alternating, until the deadline. Every fetched segment
// and model is checked against the origin's bytes by digest.
func serveLoad(addr string, titles []*title, g int, deadline time.Time, tr *tracer, o *obs.Obs, sc *serveConn) {
	ctx := context.Background()
	c, conn, err := transport.Dial(addr)
	if err != nil {
		sc.attempted++
		sc.failures = append(sc.failures, fmt.Sprintf("conn %d: dial: %v", g, err))
		return
	}
	c.Obs = o
	timed := func(parent *active, op int, f func() error) error {
		sc.attempted++
		sp := parent.child("transport." + opNames[op])
		start := time.Now()
		err := f()
		end := time.Now()
		sp.end()
		if err == nil {
			sc.lat[op] = append(sc.lat[op], ms(end.Sub(start)))
			if end.Before(deadline) {
				sc.done++
			}
		}
		return err
	}
	// The first manifest negotiates mux framing, which routing at a
	// non-default title needs.
	err = timed(nil, opManifest, func() error { _, err := c.ManifestCtx(ctx); return err })
	for w := 0; err == nil && time.Now().Before(deadline); w++ {
		t := titles[(g+w)%len(titles)]
		root := tr.root("serve.walk")
		err = walk(ctx, c, t, root, timed)
		root.end()
		if err != nil {
			err = fmt.Errorf("conn %d walk %d (%s): %w", g, w, t.name, err)
		}
	}
	if err != nil {
		sc.failures = append(sc.failures, err.Error())
	}
	sc.bytes = c.BytesDown + c.BytesUp
	sc.retries, sc.sheds = c.Retries, c.Sheds
	if cerr := conn.Close(); cerr != nil && err == nil {
		sc.failures = append(sc.failures, fmt.Sprintf("conn %d: close: %v", g, cerr))
	}
}

// walk fetches one title the way a viewer's client would, without
// decoding it, and checks every payload.
func walk(ctx context.Context, c *transport.Client, t *title, root *active, timed func(*active, int, func() error) error) error {
	if err := timed(root, opVideos, func() error { return c.SelectVideoCtx(ctx, t.digest) }); err != nil {
		return err
	}
	var wm *transport.WireManifest
	if err := timed(root, opManifest, func() error {
		var err error
		wm, err = c.ManifestCtx(ctx)
		return err
	}); err != nil {
		return err
	}
	seen := map[int]bool{}
	for _, seg := range wm.Segments {
		var s *codec.Stream
		if err := timed(root, opSegment, func() error {
			var err error
			s, err = c.SegmentCtx(ctx, seg.Index)
			return err
		}); err != nil {
			return err
		}
		if err := t.checkSegment(seg.Index, s.Marshal()); err != nil {
			return err
		}
		if seg.ModelLabel < 0 || seen[seg.ModelLabel] {
			continue
		}
		seen[seg.ModelLabel] = true
		var m *edsr.Model
		if err := timed(root, opModel, func() error {
			var err error
			m, _, err = c.ModelCtx(ctx, seg.ModelLabel, wm.MicroConfig)
			return err
		}); err != nil {
			return err
		}
		if err := t.checkModel(seg.ModelLabel, m.Params()); err != nil {
			return err
		}
	}
	return nil
}

// serveLayers derives the serve slices' per-layer metrics: client
// latency by request kind from the traced half, the origin's service
// time from its own histograms, waiting as the difference, per-call
// costs of the payload decoders, and runtime counters over the traced
// slices.
func serveLayers(b *bench, titles []*title, plain, traced *serveRun, o *obs.Obs) {
	lat := traced.lat
	for _, op := range []int{opSegment, opModel, opManifest} {
		name := "transport." + opNames[op] + "_ms"
		b.perLayer(name+".p50", percentile(zeroIfNone(lat[op]), 0.50), "ms", len(lat[op]))
		b.perLayer(name+".p99", percentile(zeroIfNone(lat[op]), 0.99), "ms", beyond(len(lat[op]), 0.99))
	}
	hists := o.Metrics.Snapshot().Histograms
	service := func(names ...string) (sum float64, n int64) {
		for _, name := range names {
			h := hists[name]
			sum += h.Sum
			n += h.Count
		}
		return sum, n
	}
	segSum, segN := service("transport_segment_seconds")
	modSum, modN := service("transport_model_seconds")
	allSum, allN := service("transport_segment_seconds", "transport_model_seconds",
		"transport_manifest_seconds", "transport_directory_seconds")
	b.perLayer("transport.server_segment_ms", 1000*ratio(segSum, float64(segN)), "ms", int(segN))
	b.perLayer("transport.server_model_ms", 1000*ratio(modSum, float64(modN)), "ms", int(modN))
	all := traced.allLatencies()
	b.perLayer("transport.wait_ms", mean(zeroIfNone(all))-1000*ratio(allSum, float64(allN)), "ms", len(all))

	n := traced.requests()
	b.perLayer("transport.bytes_per_req", ratio(float64(traced.bytes), float64(n)), "B", n)
	b.perLayer("runtime.allocs_per_req", ratio(float64(traced.mallocs), float64(n)), "count", n)
	b.perLayer("runtime.gc_pause_ms", ms(traced.gcPause), "ms", int(traced.gcs))
	b.perLayer("transport.retries", float64(plain.retries+traced.retries), "count", plain.requests()+n)
	b.perLayer("transport.sheds", float64(plain.sheds+traced.sheds), "count", plain.requests()+n)
	decoderProbes(b, titles)
}

// decoderProbes times the two payload decoders a fetch runs on every
// hosted payload: codec.Unmarshal per segment and nn.LoadWeights per
// model.
func decoderProbes(b *bench, titles []*title) {
	var unmarshal, load []float64
	for _, t := range titles {
		for _, data := range t.segments {
			for r := 0; r < b.sz.probeRepeats; r++ {
				t0 := time.Now()
				_, err := codec.Unmarshal(data)
				unmarshal = append(unmarshal, time.Since(t0).Seconds()*1e6)
				if err != nil {
					b.fail("unmarshal probe: %v", err)
					return
				}
			}
		}
		for _, sm := range t.prep.Models {
			m, err := edsr.New(t.prep.MicroConfig, 0)
			if err != nil {
				b.fail("load probe: %v", err)
				return
			}
			for r := 0; r < b.sz.probeRepeats; r++ {
				t0 := time.Now()
				err := nn.LoadWeights(bytes.NewReader(sm.Bytes), m.Params())
				load = append(load, time.Since(t0).Seconds()*1e6)
				if err != nil {
					b.fail("load probe: %v", err)
					return
				}
			}
		}
	}
	b.perLayer("codec.unmarshal_us", median(unmarshal), "us", len(unmarshal))
	b.perLayer("nn.load_weights_us", median(load), "us", len(load))
}
