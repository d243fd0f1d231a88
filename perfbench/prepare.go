package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/splitter"
	"dcsr/internal/transport"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// serverConfig is the dcsr-prepare pipeline configuration (QP 51, shot
// split, VAE features, 8f×2RB micro models) at a training budget, with
// the int8 and delta stages on or off.
func serverConfig(seed int64, steps int, int8Delta bool) core.ServerConfig {
	return core.ServerConfig{
		QP:          51,
		Split:       splitter.Config{Threshold: 14, MinLen: 3},
		VAE:         vae.Config{ImgSize: 16, LatentDim: 8, BaseCh: 4},
		VAETrain:    vae.TrainOptions{Epochs: 25, BatchSize: 4, Seed: seed},
		MicroConfig: edsr.Config{Filters: 8, ResBlocks: 2},
		Train:       edsr.TrainOptions{Steps: steps, BatchSize: 2, PatchSize: 16},
		Quant:       core.QuantConfig{Enabled: int8Delta},
		Delta:       core.DeltaConfig{Enabled: int8Delta},
		Seed:        seed,
	}
}

// clip is one generated input video.
type clip struct {
	seed   int64
	frames []*video.YUV
	fps    int
}

// prepRun is one timed Prepare.
type prepRun struct {
	wall time.Duration
	prep *core.Prepared
	o    *obs.Obs // the program's spans and counters; nil untraced
}

// stageMetrics maps Prepare's stage span names to per-layer metrics.
var stageMetrics = []struct{ span, metric string }{
	{"split", "core.split_s"},
	{"encode", "core.encode_s"},
	{"decode_low", "core.decode_low_s"},
	{"vae_features", "core.vae_features_s"},
	{"kmeans_silhouette", "core.cluster_s"},
	{"train_micro_models", "core.train_s"},
	{"delta_encode", "core.delta_encode_s"},
	{"quantize_int8", "core.quantize_int8_s"},
}

// prepareTitles is the content provider's phase: core.Prepare of every
// title in turn, one at a time, at the dcsr-prepare configuration with the
// title's -int8 -delta setting. With a tracer, each Prepare hands the
// program an *obs.Obs and its span tree is kept under the benchmark's
// own span.
func prepareTitles(b *bench, titles []*title) ([]prepRun, error) {
	runs := make([]prepRun, 0, len(titles))
	for _, t := range titles {
		cfg := serverConfig(t.clip.seed, b.sz.titleSteps, t.int8Delta)
		var o *obs.Obs
		if b.tr != nil {
			o = obs.New()
			cfg.Obs = o
		}
		b.attempted++
		// Each Prepare starts from a collected heap, so it pays for no
		// garbage of the one before and the peak it reaches is its own.
		runtime.GC()
		root := b.tr.root("core.Prepare")
		start := time.Now()
		p, err := core.Prepare(t.clip.frames, t.clip.fps, cfg)
		wall := time.Since(start)
		root.end()
		if err != nil {
			return nil, fmt.Errorf("preparing %s: %w", t.name, err)
		}
		if o != nil {
			for _, sj := range o.Trace.Traces() {
				root.adopt(sj)
			}
		}
		t.prep = p
		if err := t.originPayloads(); err != nil {
			return nil, err
		}
		runs = append(runs, prepRun{wall: wall, prep: p, o: o})
	}
	return runs, nil
}

func prepWalls(runs []prepRun) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.wall.Seconds()
	}
	return out
}

// preparedDigest hashes what a Prepare ships: the wire manifest and every
// model payload, full and delta, in label order.
func preparedDigest(p *core.Prepared) ([32]byte, error) {
	man, err := transport.EncodeWireManifest(p.FPS, p.MicroConfig, p.Manifest)
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	//lint:allow errcheck hash.Hash.Write is documented to never return an error
	h.Write(man)
	labels := make([]int, 0, len(p.Models))
	for label := range p.Models {
		labels = append(labels, label)
	}
	sort.Ints(labels)
	for _, label := range labels {
		sm := p.Models[label]
		fmt.Fprintf(h, "model %d %d\n", label, len(sm.Bytes))
		//lint:allow errcheck hash.Hash.Write is documented to never return an error
		h.Write(sm.Bytes)
		if sm.Delta != nil {
			fmt.Fprintf(h, "delta %d\n", len(sm.Delta.Bytes))
			//lint:allow errcheck hash.Hash.Write is documented to never return an error
			h.Write(sm.Delta.Bytes)
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// checkDeterminism checks the bit-determinism contract: two Prepares of
// one input ship identical manifest and model bytes. It prepares t's
// clip once more, untimed, and compares with t's timed Prepare.
func checkDeterminism(b *bench, t *title) {
	b.attempted++
	again, err := core.Prepare(t.clip.frames, t.clip.fps, serverConfig(t.clip.seed, b.sz.titleSteps, t.int8Delta))
	if err != nil {
		b.fail("preparing %s again: %v", t.name, err)
		return
	}
	da, err := preparedDigest(t.prep)
	if err != nil {
		b.fail("digest of %s: %v", t.name, err)
		return
	}
	dc, err := preparedDigest(again)
	if err != nil {
		b.fail("digest of %s: %v", t.name, err)
		return
	}
	if da != dc {
		b.fail("bit-determinism: two Prepares of %s shipped different manifest or model bytes", t.name)
	}
}

// prepareLayers derives the prepare phase's per-layer metrics from the
// traced Prepares: stage times from the program's stage spans, training
// work from its counters, and the int8 and delta gates' admission ratios.
func prepareLayers(b *bench, runs []prepRun) {
	if len(runs) == 0 {
		return
	}
	stages := map[string][]float64{}
	var clusterMax, other, steps, gflop, gflops []float64
	var quantOK, quantTried, deltaOK, deltaTried float64
	for _, r := range runs {
		var stageSum float64
		var trainS float64
		for _, root := range r.o.Trace.Traces() {
			for _, st := range root.Children {
				s := st.DurationMS / 1000
				stageSum += s
				stages[st.Name] = append(stages[st.Name], s)
				if st.Name != "train_micro_models" {
					continue
				}
				trainS = s
				var longest float64
				for _, job := range st.Children {
					if job.DurationMS/1000 > longest {
						longest = job.DurationMS / 1000
					}
				}
				clusterMax = append(clusterMax, longest)
			}
		}
		other = append(other, r.wall.Seconds()-stageSum)
		counters := r.o.Metrics.Snapshot().Counters
		steps = append(steps, float64(counters["train_steps_total"]))
		flop := float64(counters["train_flops_total"])
		gflop = append(gflop, flop/1e9)
		gflops = append(gflops, ratio(flop/1e9, trainS))
		for _, sm := range r.prep.Models {
			if sm.Quant != nil {
				quantTried++
				if sm.Quant.Int8OK {
					quantOK++
				}
			}
			if sm.Delta != nil {
				deltaTried++
				if sm.Delta.DeltaOK {
					deltaOK++
				}
			}
		}
	}
	for _, sm := range stageMetrics {
		v := stages[sm.span]
		b.perLayer(sm.metric, median(zeroIfNone(v)), "s", len(v))
	}
	b.perLayer("core.train_cluster_max_s", median(zeroIfNone(clusterMax)), "s", len(clusterMax))
	b.perLayer("core.other_s", median(other), "s", len(other))
	b.perLayer("edsr.train_steps", median(steps), "count", len(steps))
	b.perLayer("edsr.train_gflop", median(gflop), "GFLOP", len(gflop))
	b.perLayer("edsr.train_gflops_per_s", median(gflops), "GFLOP/s", len(gflops))
	b.perLayer("core.quant_int8_frac", ratio(quantOK, quantTried), "frac", int(quantTried))
	b.perLayer("core.delta_frac", ratio(deltaOK, deltaTried), "frac", int(deltaTried))
	trainProbe(b, runs[0].prep)
}

func zeroIfNone(v []float64) []float64 {
	if len(v) == 0 {
		return []float64{0}
	}
	return v
}

// trainProbe times edsr.Model.Train on the workload's own training pairs
// (cluster 0 of a prepared clip) and counts its allocations per step.
func trainProbe(b *bench, p *core.Prepared) {
	var pairs []edsr.Pair
	for si, label := range p.Assign {
		if label == 0 {
			pairs = append(pairs, edsr.Pair{Low: p.LowIFrames[si], High: p.OrigIFrames[si]})
		}
	}
	m, err := edsr.New(p.MicroConfig, b.opts.seed)
	if err != nil || len(pairs) == 0 {
		b.fail("train probe: %d pairs, %v", len(pairs), err)
		return
	}
	opts := edsr.TrainOptions{Steps: b.sz.trainSteps, BatchSize: 2, PatchSize: 16, Seed: b.opts.seed}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	tr, err := m.Train(pairs, opts)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		b.fail("train probe: %v", err)
		return
	}
	b.perLayer("edsr.train_step_ms", wall.Seconds()*1000/float64(tr.Steps), "ms", tr.Steps)
	b.perLayer("edsr.train_allocs_per_step", float64(after.Mallocs-before.Mallocs)/float64(tr.Steps), "count", tr.Steps)
}
