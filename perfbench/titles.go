package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/quality"
	"dcsr/internal/transport"
	"dcsr/internal/video"
)

// title is one video a run prepares and hosts: its pristine clip, its
// Prepare output and the origin-side digests the checks compare against.
type title struct {
	name      string
	int8Delta bool // prepared with -int8 -delta; float32 full models otherwise
	clip      clip
	prep      *core.Prepared
	digest    string // content digest the origin routes by

	segments [][]byte            // origin segment payloads, by index
	segSums  [][32]byte          // their SHA-256
	modelSum map[uint32][32]byte // SHA-256 of each full model payload
}

// makeTitles generates the run's titles of genre g from the seed: b.sz.titles
// clips, the even ones to ship float32 full models and the odd ones
// -int8 -delta, which ships a backbone plus deltas. Generation is the
// run's set-up; it is repeated b.sz.setupRepeats times and setup_s is
// the median.
func makeTitles(b *bench, g video.Genre) []*title {
	var titles []*title
	setups := make([]float64, 0, b.sz.setupRepeats)
	for r := 0; r < b.sz.setupRepeats; r++ {
		runtime.GC() // each repeat starts from a collected heap
		t0 := time.Now()
		titles = titles[:0]
		for i := 0; i < b.sz.titles; i++ {
			seed := clipSeed(b.opts.seed, i)
			titles = append(titles, &title{
				name:      fmt.Sprintf("%s-%d", g, i),
				int8Delta: i%2 == 1,
				clip:      titleClip(g, b.sz.titleW, b.sz.titleH, seed),
			})
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.endToEnd("setup_s", median(setups), "s", len(setups))
	return titles
}

// clipSeed derives the seed of the i-th clip of a run from the workload
// seed.
func clipSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// parallel runs f(0) … f(n-1) on up to NumCPU goroutines and returns
// when all have finished.
func parallel(n int, f func(i int)) {
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f(i)
		}(i)
	}
	wg.Wait()
}

// titleClip generates a title's clip. GenreConfig picks how the genre's
// scenes look from the seed; the shot list is fixed — TotalCues shots of
// 7 frames (the middle of dcsr-prepare's 5–9) cycling through the scenes —
// so every seed asks for the same number of frames and shots.
func titleClip(g video.Genre, w, h int, seed int64) clip {
	gc := video.GenreConfig(g, w, h, seed)
	for i := 0; i < gc.TotalCues; i++ {
		gc.Cues = append(gc.Cues, video.Cue{Scene: i % gc.NumScenes, Frames: 7})
	}
	c := video.Generate(gc)
	return clip{seed: seed, frames: c.YUVFrames(), fps: c.FPS}
}

// originPayloads records the bytes the origin serves for t, as
// transport.Server.Register packages them.
func (t *title) originPayloads() error {
	t.modelSum = map[uint32][32]byte{}
	for i := range t.prep.Segments {
		sub, err := t.prep.SegmentStream(i)
		if err != nil {
			return fmt.Errorf("%s segment %d: %w", t.name, i, err)
		}
		data := sub.Marshal()
		t.segments = append(t.segments, data)
		t.segSums = append(t.segSums, sha256.Sum256(data))
	}
	for label, sm := range t.prep.Models {
		t.modelSum[uint32(label)] = sha256.Sum256(sm.Bytes)
	}
	return nil
}

// checkSegment reports whether a fetched segment re-serializes to the
// origin's payload for segment i.
func (t *title) checkSegment(i int, data []byte) error {
	if i < 0 || i >= len(t.segSums) {
		return fmt.Errorf("%s: segment %d not hosted", t.name, i)
	}
	if sha256.Sum256(data) != t.segSums[i] {
		return fmt.Errorf("%s: segment %d differs from the origin's bytes", t.name, i)
	}
	return nil
}

// checkModel reports whether fetched weights re-encode to the origin's
// payload for label.
func (t *title) checkModel(label int, params []*nn.Param) error {
	want, ok := t.modelSum[uint32(label)]
	if !ok {
		return fmt.Errorf("%s: model %d not hosted", t.name, label)
	}
	if sha256.Sum256(nn.EncodeWeights(params)) != want {
		return fmt.Errorf("%s: model %d differs from the origin's bytes", t.name, label)
	}
	return nil
}

// framesDigest hashes every plane of every frame in order.
func framesDigest(frames []*video.YUV) [32]byte {
	h := sha256.New()
	for _, f := range frames {
		fmt.Fprintf(h, "%dx%d;", f.W, f.H)
		//lint:allow errcheck hash.Hash.Write is documented to never return an error
		h.Write(f.Y)
		//lint:allow errcheck hash.Hash.Write is documented to never return an error
		h.Write(f.U)
		//lint:allow errcheck hash.Hash.Write is documented to never return an error
		h.Write(f.V)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// meanLumaPSNR is the mean luma PSNR of frames against the pristine
// source, frame by frame.
func meanLumaPSNR(frames, src []*video.YUV) (float64, error) {
	if len(frames) != len(src) || len(src) == 0 {
		return 0, fmt.Errorf("%d frames displayed, source has %d", len(frames), len(src))
	}
	var sum float64
	for i, f := range frames {
		sum += quality.PSNRYUV(f, src[i])
	}
	return sum / float64(len(src)), nil
}

// origin is a transport.FleetServer hosting the titles on loopback TCP.
type origin struct {
	srv  *transport.Server
	addr string
	done chan error
}

// startOrigin registers the titles with a new fleet server and serves
// it on an ephemeral loopback port. o, when non-nil, receives the
// server's metrics.
func startOrigin(titles []*title, o *obs.Obs) (*origin, error) {
	srv := transport.NewFleetServer()
	srv.Obs = o
	for _, t := range titles {
		d, err := srv.Register(t.prep)
		if err != nil {
			return nil, fmt.Errorf("registering %s: %w", t.name, err)
		}
		t.digest = d
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	og := &origin{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { og.done <- srv.Serve(ln) }()
	return og, nil
}

// stop closes the server and waits for its accept loop to return.
func (og *origin) stop() error {
	err := og.srv.Close()
	if serr := <-og.done; serr != nil && !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	return err
}
