package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// The golden frames pin the replication protocol byte for byte: one
// complete frame (length prefix, type, body) of every message type. Frames
// are split and assembled here by hand, independently of the codec under
// test, so any change to the bytes on the wire fails this test.
const (
	goldenSegName = "000042.seg"
	goldenSegData = "golden segment bytes"
	// goldenManifest is renderManifest(&manifest{Version: 1, Seq: 7,
	// NextFile: 43, Campaigns: 2}).
	goldenManifest = `{"version":1,"campaigns":2,"seq":7,"next_file":43,"segments":null}` + "\nff2acb54\n"
	goldenStats    = `{"Campaigns":2}`

	goldenReplHello = "0000001101" + "00000001" + "0000000000000000" + "00000000" // v1, seq 0, holds nothing
	goldenReplAck   = "0000000906" + "0000000000000007"
)

var (
	goldenReplSeg = "0000001902" + "000a" + hex.EncodeToString([]byte(goldenSegName)) +
		"0000000000000014" + "08ca12bf" // 20 bytes, crc32c
	goldenReplChunk   = "0000001503" + hex.EncodeToString([]byte(goldenSegData))
	goldenReplSegDone = "0000000104"
	goldenReplCommit  = "0000006405" +
		"0000004c" + hex.EncodeToString([]byte(goldenManifest)) +
		"0000000f" + hex.EncodeToString([]byte(goldenStats))
)

// rawFrame assembles one frame without the codec under test.
func rawFrame(typ byte, body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(body)+1))
	return append(append(b, typ), body...)
}

// readRawFrame reads one frame off r without the codec under test.
func readRawFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	frame := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		t.Fatalf("read frame body: %v", err)
	}
	return frame
}

func expectFrame(t *testing.T, what string, got []byte, want string) {
	t.Helper()
	if g := hex.EncodeToString(got); g != want {
		t.Fatalf("%s frame changed on the wire:\n got %s\nwant %s", what, g, want)
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// captureConn is a net.Conn that records what is written to it.
type captureConn struct {
	net.Conn
	out []byte
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}

// TestGoldenReplFramesPrimary ships one golden segment and commit through
// the primary's shipper and checks every frame it writes.
func TestGoldenReplFramesPrimary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.WriteFile(filepath.Join(dir, goldenSegName), []byte(goldenSegData), 0o644); err != nil {
		t.Fatal(err)
	}
	conn := &captureConn{}
	ok, err := s.shipState(conn, replState{
		manifest: []byte(goldenManifest),
		stats:    []byte(goldenStats),
		segs:     []string{goldenSegName},
	}, map[string]bool{})
	if !ok || err != nil {
		t.Fatalf("shipState = %v, %v", ok, err)
	}
	r := bytes.NewReader(conn.out)
	expectFrame(t, "Seg", readRawFrame(t, r), goldenReplSeg)
	expectFrame(t, "Chunk", readRawFrame(t, r), goldenReplChunk)
	expectFrame(t, "SegDone", readRawFrame(t, r), goldenReplSegDone)
	expectFrame(t, "Commit", readRawFrame(t, r), goldenReplCommit)

	// The primary's half of the decode: a golden Hello parses as sent.
	hello, err := parseReplHello(mustHex(t, goldenReplHello)[5:])
	if err != nil || !reflect.DeepEqual(hello, replHello{Version: replProtoVersion}) {
		t.Fatalf("golden hello parsed as %+v, %v", hello, err)
	}
}

// TestGoldenReplFramesReplica feeds the golden primary frames to a real
// replica and checks the Hello and Ack frames it writes.
func TestGoldenReplFramesReplica(t *testing.T) {
	if m, _ := renderManifest(&manifest{Version: 1, Campaigns: 2, Seq: 7, NextFile: 43}); string(m) != goldenManifest {
		t.Fatalf("golden manifest is stale: renderManifest gives %q", m)
	}
	r, err := OpenReplica(ReplicaOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replicaEnd, primaryEnd := net.Pipe()
	defer primaryEnd.Close()
	errc := make(chan error, 1)
	go func() { errc <- r.Sync(context.Background(), replicaEnd) }()
	primaryEnd.SetDeadline(time.Now().Add(10 * time.Second))

	expectFrame(t, "Hello", readRawFrame(t, primaryEnd), goldenReplHello)
	for _, f := range []string{goldenReplSeg, goldenReplChunk, goldenReplSegDone, goldenReplCommit} {
		if _, err := primaryEnd.Write(mustHex(t, f)); err != nil {
			t.Fatal(err)
		}
	}
	expectFrame(t, "Ack", readRawFrame(t, primaryEnd), goldenReplAck)
	primaryEnd.Close()
	<-errc
	if got := r.Snapshot().Stats().Campaigns; got != 2 {
		t.Fatalf("replica serves %d campaigns after the golden commit, want 2", got)
	}
}

// TestReplicaRejectsTraversalNames pins that segment names off the wire
// never address a file outside the replica directory: a Seg frame or a
// manifest naming anything but a plain numbered segment file fails the
// session and writes nothing.
func TestReplicaRejectsTraversalNames(t *testing.T) {
	const data = "evil"
	for _, name := range []string{"../escaped.seg", "sub/000001.seg", "/tmp/escaped.seg", "escaped.seg", "000001.wal"} {
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			dir := filepath.Join(base, "replica")
			r, err := OpenReplica(ReplicaOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			replicaEnd, primaryEnd := net.Pipe()
			errc := make(chan error, 1)
			go func() { errc <- r.Sync(context.Background(), replicaEnd) }()
			primaryEnd.SetDeadline(time.Now().Add(10 * time.Second))
			readRawFrame(t, primaryEnd) // Hello

			seg := appendReplSeg(nil, replSeg{Name: name, Size: uint64(len(data)),
				CRC: crc32.Checksum([]byte(data), castagnoli)})
			// Writes fail once the replica hangs up on the bad header.
			primaryEnd.Write(rawFrame(replFrameSeg, seg))
			primaryEnd.Write(rawFrame(replFrameChunk, []byte(data)))
			primaryEnd.Write(rawFrame(replFrameSegDone, nil))
			primaryEnd.Close()
			if err := <-errc; err == nil {
				t.Fatal("Sync accepted a bad segment name")
			}
			for _, p := range []string{filepath.Join(base, "escaped.seg"), filepath.Join(dir, name)} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("%s exists after the session (stat err %v)", p, err)
				}
			}
		})
	}

	t.Run("manifest", func(t *testing.T) {
		r, err := OpenReplica(ReplicaOptions{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		r.held["../escaped.seg"] = true
		man, err := renderManifest(&manifest{Version: 1, Segments: []string{"../escaped.seg"}})
		if err != nil {
			t.Fatal(err)
		}
		// The name must be refused before anything looks for the file.
		err = r.applyCommit(replCommit{Manifest: man, Stats: []byte("{}")})
		if err == nil || errors.Is(err, os.ErrNotExist) {
			t.Fatalf("applyCommit on a manifest naming a file outside the replica directory: %v", err)
		}
	})
}

// FuzzReplFrame hammers the replication body parsers with arbitrary bytes:
// no input may panic or over-allocate, and every body a parser accepts
// must re-encode to exactly the same bytes. The first input byte picks the
// frame type and the rest is the body; the frame reader itself is fuzzed
// by wire.FuzzFrame.
func FuzzReplFrame(f *testing.F) {
	bodies := map[byte][]byte{
		replFrameHello: appendReplHello(nil, replHello{Version: replProtoVersion, AppliedSeq: 9,
			Held: []string{"000001.seg", "000004.seg"}}),
		replFrameSeg:    appendReplSeg(nil, replSeg{Name: goldenSegName, Size: 20, CRC: 0x08ca12bf}),
		replFrameCommit: appendReplCommit(nil, replCommit{Manifest: []byte(goldenManifest), Stats: []byte(goldenStats)}),
	}
	for typ, body := range bodies {
		f.Add(append([]byte{typ}, body...))
	}
	f.Add(append([]byte{replFrameSeg}, appendReplSeg(nil, replSeg{Name: "../escaped.seg"})...))
	f.Add([]byte{replFrameHello, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		var again []byte
		switch data[0] {
		case replFrameHello:
			h, err := parseReplHello(body)
			if err != nil {
				return
			}
			again = appendReplHello(nil, h)
		case replFrameSeg:
			s, err := parseReplSeg(body)
			if err != nil {
				return
			}
			if _, ok := fileNumber(s.Name, ".seg"); !ok {
				t.Fatalf("parseReplSeg accepted segment name %q", s.Name)
			}
			again = appendReplSeg(nil, s)
		case replFrameCommit:
			c, err := parseReplCommit(body)
			if err != nil {
				return
			}
			again = appendReplCommit(nil, c)
		default:
			return
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("type %d decode/encode not identity", data[0])
		}
	})
}
