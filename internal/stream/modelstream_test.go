package stream

import (
	"strings"
	"testing"
)

// modelStreamManifest builds a Fig-7-style manifest whose models ship as
// a backbone (label 0) plus deltas: segments touch clusters 0,1,1,2,2,2,3.
func modelStreamManifest() *Manifest {
	const bbDigest = "aa11"
	m := &Manifest{
		Backbone: &BackboneInfo{Label: 0, Digest: bbDigest, Bytes: 100},
		Models: map[int]ModelInfo{
			0: {Label: 0, Bytes: 100, Digest: bbDigest},
			1: {Label: 1, Bytes: 25, Delta: true, BackboneDigest: bbDigest, Digest: "bb22", FullBytes: 110},
			2: {Label: 2, Bytes: 30, Delta: true, BackboneDigest: bbDigest, Digest: "cc33", FullBytes: 120},
			3: {Label: 3, Bytes: 130}, // gated out of delta encoding: ships complete
		},
	}
	for i, l := range []int{0, 1, 1, 2, 2, 2, 3} {
		m.Segments = append(m.Segments, SegmentInfo{
			Index: i, Start: i * 10, End: (i + 1) * 10, Bytes: 1000, ModelLabel: l,
		})
	}
	return m
}

func TestManifestValidateModelStream(t *testing.T) {
	if err := modelStreamManifest().Validate(); err != nil {
		t.Fatalf("valid model-stream manifest rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"delta without any backbone", func(m *Manifest) {
			m.Backbone = nil
		}, "no backbone"},
		{"delta against absent backbone digest", func(m *Manifest) {
			mi := m.Models[1]
			mi.BackboneDigest = "deadbeef"
			m.Models[1] = mi
		}, "absent from the manifest"},
		{"delta missing full-payload digest", func(m *Manifest) {
			mi := m.Models[2]
			mi.Digest = ""
			m.Models[2] = mi
		}, "missing full-payload digest"},
		{"backbone label without model entry", func(m *Manifest) {
			m.Backbone.Label = 9
		}, "no model entry"},
		{"backbone without digest", func(m *Manifest) {
			m.Backbone.Digest = ""
		}, "missing digest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := modelStreamManifest()
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken model-stream manifest")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSessionModelStreamAccounting walks the Fig-7 segment order over a
// model-stream manifest: the backbone is paid for exactly once (its own
// label's fetch), deltas cost their delta payloads, the gated-out model
// costs its full payload, and the breakdown sums to ModelBytes.
func TestSessionModelStreamAccounting(t *testing.T) {
	m := modelStreamManifest()
	s, err := NewSession(m, true)
	if err != nil {
		t.Fatal(err)
	}
	total := s.Run()
	// Label 0 (the backbone itself): 100. Deltas 1 and 2: 25 + 30.
	// Full model 3: 130.
	if s.BackboneBytes != 100 || s.DeltaModelBytes != 55 || s.FullModelBytes != 130 {
		t.Fatalf("breakdown backbone=%d delta=%d full=%d, want 100/55/130",
			s.BackboneBytes, s.DeltaModelBytes, s.FullModelBytes)
	}
	if s.ModelBytes != s.BackboneBytes+s.DeltaModelBytes+s.FullModelBytes {
		t.Fatalf("ModelBytes %d does not equal breakdown sum", s.ModelBytes)
	}
	if want := 7*1000 + 285; total != want {
		t.Fatalf("TotalBytes = %d, want %d", total, want)
	}
}

// TestSessionModelStreamBackboneFirstDelta: when the session never plays
// the backbone's own cluster, the first delta fetch pays for the
// backbone; later deltas ride on it.
func TestSessionModelStreamBackboneFirstDelta(t *testing.T) {
	m := modelStreamManifest()
	m.Segments = m.Segments[1:6] // labels 1,1,2,2,2 — no backbone segment
	s, err := NewSession(m, true)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.BackboneBytes != 100 {
		t.Fatalf("BackboneBytes = %d, want 100 (fetched once for the first delta)", s.BackboneBytes)
	}
	if s.DeltaModelBytes != 55 || s.FullModelBytes != 0 {
		t.Fatalf("delta=%d full=%d, want 55/0", s.DeltaModelBytes, s.FullModelBytes)
	}
	if s.Events[0].ModelBytes != 125 {
		t.Fatalf("first delta fetch cost %d, want 125 (backbone + delta)", s.Events[0].ModelBytes)
	}
	if s.Events[2].ModelBytes != 30 {
		t.Fatalf("second cluster cost %d, want 30 (delta only)", s.Events[2].ModelBytes)
	}
	// A backbone-label segment after the fact costs nothing new.
	ev := s.Step(SegmentInfo{Index: 9, Start: 90, End: 100, Bytes: 1000, ModelLabel: 0})
	if ev.ModelBytes != 0 {
		t.Fatalf("backbone label after backbone fetch cost %d, want 0", ev.ModelBytes)
	}
	if s.BackboneBytes != 100 {
		t.Fatalf("BackboneBytes grew to %d on reuse", s.BackboneBytes)
	}
}

// TestSessionSourceChargesWhatMoved pins the Source seam's accounting:
// the session charges the bytes each delivery reports by kind — a
// fallback as a full model, a failed delivery's already-moved backbone
// too — and the breakdown still sums to ModelBytes.
func TestSessionSourceChargesWhatMoved(t *testing.T) {
	m := modelStreamManifest()
	s, err := NewSession(m, true)
	if err != nil {
		t.Fatal(err)
	}
	s.Source = func(label int) (Download, error) {
		switch label {
		case 0: // the backbone's own label
			return Download{Data: make([]byte, 100), Backbone: 100}, nil
		case 1: // backbone already in hand: only its delta moves
			return Download{Data: make([]byte, 25), Delta: 25}, nil
		case 2: // assembly failed, so the complete model was fetched
			return Download{Data: make([]byte, 120), Full: 120}, nil
		}
		return Download{Full: 40}, errInjected // bytes moved, then the delivery failed
	}
	s.Run()
	if s.BackboneBytes != 100 || s.DeltaModelBytes != 25 || s.FullModelBytes != 160 {
		t.Fatalf("breakdown backbone=%d delta=%d full=%d, want 100/25/160",
			s.BackboneBytes, s.DeltaModelBytes, s.FullModelBytes)
	}
	if s.ModelBytes != 285 {
		t.Fatalf("ModelBytes = %d, want 285", s.ModelBytes)
	}
	last := s.Events[len(s.Events)-1]
	if !last.Degraded || last.ModelDownloaded || last.ModelBytes != 40 {
		t.Fatalf("failed delivery event %+v, want degraded, not downloaded, 40 bytes charged", last)
	}
	if s.Downloads != 3 || s.DegradedSegments != 1 {
		t.Fatalf("downloads=%d degraded=%d, want 3/1", s.Downloads, s.DegradedSegments)
	}
}
