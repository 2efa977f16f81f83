package store

import (
	"encoding/binary"
	"testing"
)

// TestBloomNoFalseNegatives is the correctness contract: every added key
// answers true.
func TestBloomNoFalseNegatives(t *testing.T) {
	f := newSBBF(10_000, segBloomBitsPerKey)
	key := make([]byte, 8)
	for i := 0; i < 10_000; i++ {
		binary.LittleEndian.PutUint64(key, uint64(i))
		f.add(key)
	}
	for i := 0; i < 10_000; i++ {
		binary.LittleEndian.PutUint64(key, uint64(i))
		if !f.mayContain(key) {
			t.Fatalf("false negative for key %d", i)
		}
	}
}

// TestBloomFalsePositiveRate pins the FPR under 1% at the configured
// bits/key — the satellite's acceptance bar, with real headroom below it
// (the SBBF at 16 bits/key lands around 0.1%).
func TestBloomFalsePositiveRate(t *testing.T) {
	const nKeys = 50_000
	f := newSBBF(nKeys, segBloomBitsPerKey)
	key := make([]byte, 8)
	for i := 0; i < nKeys; i++ {
		binary.LittleEndian.PutUint64(key, uint64(i))
		f.add(key)
	}
	const probes = 200_000
	falsePos := 0
	for i := 0; i < probes; i++ {
		// Disjoint key space: high bit set.
		binary.LittleEndian.PutUint64(key, uint64(i)|1<<63)
		if f.mayContain(key) {
			falsePos++
		}
	}
	rate := float64(falsePos) / probes
	t.Logf("false-positive rate at %d bits/key: %.4f%% (%d/%d)",
		segBloomBitsPerKey, rate*100, falsePos, probes)
	if rate >= 0.01 {
		t.Fatalf("false-positive rate %.4f%% >= 1%% at %d bits/key", rate*100, segBloomBitsPerKey)
	}
}

// TestBloomAbsentFilterAnswersTrue pins that a segment without a persisted
// filter (written with Options.DisableBloom) never filters anything out.
func TestBloomAbsentFilterAnswersTrue(t *testing.T) {
	var f sbbf
	if !f.mayContain([]byte("anything")) {
		t.Fatal("absent filter returned a definitive negative")
	}
}

// TestBloomKeyNamespacing pins that IP and engine-ID keys with identical
// payload bytes hash differently.
func TestBloomKeyNamespacing(t *testing.T) {
	payload := []byte{10, 0, 0, 1}
	var scratch [17]byte
	ipKey := bloomIPKey(scratch[:0], 4, payload)
	var scratch2 [64]byte
	engKey := bloomEngineKey(scratch2[:0], payload)
	if string(ipKey) == string(engKey) {
		t.Fatal("IP and engine keys collide for identical payloads")
	}
	f := newSBBF(64, segBloomBitsPerKey)
	f.add(ipKey)
	if !f.mayContain(ipKey) {
		t.Fatal("false negative on ip key")
	}
}
