package main

import (
	"context"
	"math/rand"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/tensor"
	"dcsr/internal/transport"
	"dcsr/internal/video"
)

// playSession is one viewer session's outcome.
type playSession struct {
	title  *title
	frames int
	wall   time.Duration
	stats  *transport.PlayStats
	digest [32]byte // of the displayed frames

	// Enhance time by precision, from the program's codec histograms;
	// traced sessions only.
	enhF32, enhI8 time.Duration
	nF32, nI8     int64
}

// playOnce streams title t in one session on a fresh connection. The
// session's wall time runs from dialling to the last displayed frame.
func playOnce(addr string, t *title, tr *tracer) (playSession, error) {
	ctx := context.Background()
	var o *obs.Obs
	if tr != nil {
		o = obs.New()
	}
	root := tr.root("play.session")
	start := time.Now()
	sp := root.child("transport.Dial")
	c, conn, err := transport.Dial(addr)
	sp.end()
	if err != nil {
		root.end()
		return playSession{}, err
	}
	c.Obs = o
	sp = root.child("transport.ManifestCtx")
	_, err = c.ManifestCtx(ctx)
	sp.end()
	if err == nil {
		sp = root.child("transport.SelectVideoCtx")
		err = c.SelectVideoCtx(ctx, t.digest)
		sp.end()
	}
	play := root.child("transport.PlayCtx")
	s := playSession{title: t}
	if err == nil {
		var frames []*video.YUV
		frames, s.stats, err = c.PlayCtx(ctx, true)
		s.wall = time.Since(start)
		play.end()
		if err == nil {
			s.frames = len(frames)
			s.digest = framesDigest(frames)
		}
	}
	root.end()
	if cerr := conn.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return playSession{}, err
	}
	if o != nil {
		for _, sj := range o.Trace.Traces() {
			play.adopt(sj)
		}
		snap := o.Metrics.Snapshot()
		all := snap.Histograms["codec_enhance_seconds"]
		i8 := snap.WindowedHistograms["codec_enhance_int8_window_seconds"]
		s.enhI8, s.nI8 = seconds(i8.Sum), i8.Count
		s.enhF32, s.nF32 = seconds(all.Sum-i8.Sum), all.Count-i8.Count
	}
	return s, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// checkPlayback checks every session against core.Player playback of
// the same Prepared, run untimed: identical pixels, and model bytes that
// add up to backbone + delta + full. It returns the mean luma PSNR of the
// frames the passing sessions displayed.
func checkPlayback(b *bench, titles []*title, sessions []playSession) float64 {
	type ref struct {
		digest [32]byte
		psnr   float64
	}
	played := make([]ref, len(titles))
	errs := make([]error, len(titles))
	parallel(len(titles), func(i int) {
		t := titles[i]
		res, err := core.NewPlayer(t.prep).Play()
		if err == nil {
			played[i].psnr, err = meanLumaPSNR(res.Frames, t.clip.frames)
			played[i].digest = framesDigest(res.Frames)
		}
		errs[i] = err
	})
	refs := map[*title]ref{}
	for i, t := range titles {
		if errs[i] != nil {
			b.fail("local playback of %s: %v", t.name, errs[i])
			continue
		}
		refs[t] = played[i]
	}
	var psnrSum, frames float64
	for i, s := range sessions {
		r, ok := refs[s.title]
		st := s.stats
		switch {
		case !ok:
			b.fail("session %d (%s): no reference playback to compare with", i, s.title.name)
		case s.digest != r.digest:
			b.fail("session %d (%s): frames over the wire differ from core.Player playback", i, s.title.name)
		case st.ModelBytes != st.BackboneBytes+st.DeltaModelBytes+st.FullModelBytes:
			b.fail("session %d (%s): ModelBytes %d != backbone %d + delta %d + full %d", i, s.title.name,
				st.ModelBytes, st.BackboneBytes, st.DeltaModelBytes, st.FullModelBytes)
		default:
			psnrSum += r.psnr * float64(s.frames)
			frames += float64(s.frames)
		}
	}
	return ratio(psnrSum, frames)
}

// playLayers derives the play phase's per-layer metrics from the traced
// sessions.
func playLayers(b *bench, traced []playSession) {
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	var playSelf time.Duration
	op := map[string][]float64{}
	for _, s := range spans {
		switch s.Name {
		case "client_play":
			playSelf += self[s.ID]
		case "attempt.manifest":
			op["manifest"] = append(op["manifest"], ms(s.End.Sub(s.Start)))
		case "attempt.segment":
			op["segment"] = append(op["segment"], ms(s.End.Sub(s.Start)))
		case "attempt.model", "attempt.backbone", "attempt.modeldelta":
			op["model"] = append(op["model"], ms(s.End.Sub(s.Start)))
		}
	}
	var enhF32, enhI8 time.Duration
	var nF32, nI8, frames int64
	var hits, downloads, backbone, delta, full float64
	for _, s := range traced {
		enhF32 += s.enhF32
		enhI8 += s.enhI8
		nF32 += s.nF32
		nI8 += s.nI8
		frames += int64(s.frames)
		hits += float64(s.stats.CacheHits)
		downloads += float64(s.stats.ModelDownloads)
		backbone += float64(s.stats.BackboneBytes)
		delta += float64(s.stats.DeltaModelBytes)
		full += float64(s.stats.FullModelBytes)
	}
	n := float64(len(traced))
	b.perLayer("edsr.enhance_f32_ms", ratio(ms(enhF32), float64(nF32)), "ms", int(nF32))
	b.perLayer("edsr.enhance_int8_ms", ratio(ms(enhI8), float64(nI8)), "ms", int(nI8))
	b.perLayer("codec.decode_ms_per_frame", ratio(ms(playSelf-enhF32-enhI8), float64(frames)), "ms", int(frames))
	for _, name := range []string{"manifest", "segment", "model"} {
		b.perLayer("transport."+name+"_ms", mean(zeroIfNone(op[name])), "ms", len(op[name]))
	}
	b.perLayer("stream.cache_hit_frac", ratio(hits, hits+downloads), "frac", int(hits+downloads))
	b.perLayer("session.backbone_bytes", ratio(backbone, n), "B", len(traced))
	b.perLayer("session.delta_bytes", ratio(delta, n), "B", len(traced))
	b.perLayer("session.full_bytes", ratio(full, n), "B", len(traced))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// fps is frames displayed over session wall time, summed over sessions.
func fps(sessions []playSession) float64 {
	var frames float64
	var wall time.Duration
	for _, s := range sessions {
		frames += float64(s.frames)
		wall += s.wall
	}
	return ratio(frames, wall.Seconds())
}

// convProbe times one 8→8 3×3 body convolution at the title size through
// nn.Conv2D.ForwardInference and ForwardInferenceInt8, and reports the
// operation count and the bytes each call moves, computed from tensor
// sizes: input, output and weights at the precision the kernel reads,
// plus, on int8, the f32 input read once to quantize it.
func convProbe(b *bench) {
	const ch = 8
	w, h := b.sz.convW, b.sz.convH
	rng := rand.New(rand.NewSource(b.opts.seed))
	conv := nn.NewConv2D(rng, ch, ch, 3, 1, 1)
	x := tensor.New(1, ch, h, w)
	x.Randn(rng, 1)
	conv.BeginCalibration()
	conv.ForwardInference(x)
	conv.EndCalibration()
	conv.QuantizeInt8()

	timeCalls := func(f func()) []float64 {
		f() // warm the layer's reusable buffers
		out := make([]float64, b.sz.probeRepeats)
		for i := range out {
			t0 := time.Now()
			f()
			out[i] = ms(time.Since(t0))
		}
		return out
	}
	f32 := timeCalls(func() { conv.ForwardInference(x) })
	i8 := timeCalls(func() { conv.ForwardInferenceInt8(x) })
	act := float64(ch * h * w)
	wts := float64(ch * ch * 9)
	ops := 2 * wts * float64(h*w)
	b.perLayer("nn.conv3x3_f32_ms", median(f32), "ms", len(f32))
	b.perLayer("nn.conv3x3_f32_gflop", ops/1e9, "GFLOP", 1)
	b.perLayer("nn.conv3x3_f32_mb", 4*(act+act+wts+ch)/1e6, "MB", 1)
	b.perLayer("nn.conv3x3_int8_ms", median(i8), "ms", len(i8))
	b.perLayer("nn.conv3x3_int8_gop", ops/1e9, "GOP", 1)
	b.perLayer("nn.conv3x3_int8_mb", (4*act+act+4*act+wts+4*ch)/1e6, "MB", 1)
}
