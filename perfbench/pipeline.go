package main

import (
	"fmt"
	"runtime"
	"time"

	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// runPipeline returns the workload for genre g. One run walks the whole
// system over the genre's titles: the content provider prepares them
// (prepare phase), then the viewer's and the origin operator's phases
// take turns — one play session over loopback TCP, then one serve slice
// of nproc concurrent fetch sessions — so both sample the whole measured
// time. Every output is checked.
func runPipeline(g video.Genre) func(*bench) error {
	return func(b *bench) error {
		start := time.Now()
		titles := makeTitles(b, g)
		b.phaseDone("setup", start)
		start = time.Now()
		runs, err := prepareTitles(b, titles)
		if err != nil {
			return err
		}
		b.phaseDone("prepare", start)
		start = time.Now()
		checkDeterminism(b, titles[0])
		// Collect the Prepares' garbage now, so the measured phases do
		// not pay for it.
		runtime.GC()
		b.phaseDone("check", start)

		start = time.Now()
		plain, err := playAndServe(b, titles, nil, nil)
		if err != nil {
			return err
		}
		var traced *half
		var o *obs.Obs
		if b.opts.trace {
			o = obs.New()
			if traced, err = playAndServe(b, titles, b.tr, o); err != nil {
				return err
			}
		}
		b.phaseDone("play_serve", start)
		start = time.Now()
		sessions := plain.sessions
		if traced != nil {
			sessions = append(append([]playSession(nil), sessions...), traced.sessions...)
		}
		psnr := checkPlayback(b, titles, sessions)
		b.phaseDone("check", start)

		if !b.opts.trace {
			var frames int
			var bytes float64
			for _, s := range plain.sessions {
				frames += s.frames
				bytes += float64(s.stats.VideoBytes + s.stats.ModelBytes)
			}
			walls := prepWalls(runs)
			sv := plain.serve
			all := sv.allLatencies()
			b.endToEnd("prepare_s", mean(walls), "s", len(walls))
			b.endToEnd("play_fps", fps(plain.sessions), "1/s", len(plain.sessions))
			b.endToEnd("psnr_db", psnr, "dB", frames)
			b.endToEnd("session_bytes", ratio(bytes, float64(len(plain.sessions))), "B", len(plain.sessions))
			b.endToEnd("serve_rps", sv.rps(), "1/s", len(sv.rates))
			b.endToEnd("serve_p50_ms", percentile(all, 0.50), "ms", len(all))
			b.endToEnd("serve_p99_ms", percentile(all, 0.99), "ms", beyond(len(all), 0.99))
			return nil
		}

		start = time.Now()
		prepareLayers(b, runs)
		playLayers(b, traced.sessions)
		convProbe(b)
		serveLayers(b, titles, plain.serve, traced.serve, o)
		b.phaseDone("probes", start)
		base := plain.serve.rps()
		n := traced.serve.requests()
		b.perLayer("obs.trace_overhead_frac", ratio(base-traced.serve.rps(), base), "frac", n)
		b.perLayer("trace.coverage_frac", coverage(b.tr.snapshot()), "frac", len(runs)+len(traced.sessions)+n)
		b.perLayer("runtime.peak_rss_mb", peakRSSMB(), "MB", 1)
		return nil
	}
}

// half is what one measured half of a run saw: an untraced run has one
// half, a traced run an untraced and a traced one.
type half struct {
	sessions []playSession
	serve    *serveRun
}

// playAndServe measures one half: play sessions one at a time, cycling
// through the titles, each followed by one serve slice, until the half's
// time has passed, at least b.sz.minSessions ran and the last cycle is
// complete, so every title weighs the same. Sessions fetch from one
// origin; the serve slices load a second one, instrumented with o, when
// o is non-nil.
func playAndServe(b *bench, titles []*title, tr *tracer, o *obs.Obs) (*half, error) {
	playOrigin, err := startOrigin(titles, nil)
	if err != nil {
		return nil, err
	}
	serveOrigin := playOrigin
	if o != nil {
		if serveOrigin, err = startOrigin(titles, o); err != nil {
			return nil, stopAll(err, playOrigin)
		}
	}
	h := &half{serve: &serveRun{}}
	d := b.phase()
	t0 := time.Now()
	for i := 0; time.Since(t0) < d || i < b.sz.minSessions || i%len(titles) != 0; i++ {
		t := titles[i%len(titles)]
		b.attempted++
		s, err := playOnce(playOrigin.addr, t, tr)
		if err != nil {
			b.fail("play session %d (%s): %v", i, t.name, err)
		} else {
			h.sessions = append(h.sessions, s)
		}
		serveOnce(b, serveOrigin.addr, titles, tr, o, h.serve)
	}
	origins := []*origin{playOrigin}
	if serveOrigin != playOrigin {
		origins = append(origins, serveOrigin)
	}
	if err := stopAll(nil, origins...); err != nil {
		return nil, err
	}
	return h, nil
}

// stopAll stops every origin and returns err, or else the first error
// stopping one.
func stopAll(err error, origins ...*origin) error {
	for _, og := range origins {
		if serr := og.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping origin: %w", serr)
		}
	}
	return err
}
