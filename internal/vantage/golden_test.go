package vantage

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
)

// The golden frames pin the coordinator↔vantage protocol byte for byte:
// one complete frame (length prefix, type, body) of every message type.
// Frames are split and assembled here by hand, independently of the codec
// under test, so any change to the bytes on the wire fails this test.
var (
	goldenHello = "0000000d01" + "00000001" + "0006" + hex.EncodeToString([]byte("golden"))

	goldenCampaign = "00000083" + "02" +
		"000000000000002a" + "fffffffffffffff9" + // campaign seed 42, sim seed -7
		"0000000f" + "00000002" + "00001388" + "00000040" + // day 15, epochs 2, rate 5000, batch 64
		"00000004" + "00000002" + "00000001dcd65000" + // workers 4, retries 2, timeout 8s
		"00000001" + "00" + "01" + // 1 shard, tiny world, faults follow
		"3fa999999999999a" + "3fb999999999999a" + "3f847ae147ae147b" + // loss .05, rate-limit .1, mismatch .01
		"3f947ae147ae147b" + "00000003" + "3f847ae147ae147b" + // duplicate .02, 3 copies, truncate .01
		"3f847ae147ae147b" + "3f50624dd2f1a9fc" + "00000000001e8480" + // corrupt .01, off-path .001, jitter 2ms
		"0000000000000000" // send errors 0

	goldenLease     = "0000001103" + "0000000000000001" + "00000000" + "00000000"
	goldenHeartbeat = "0000000904" + "0000000000000001"

	goldenPartial = "0000002905" + "0000000000000001" + "00000000" + "00000000" + "00000001" + // one response
		"0000000000000064" + "04c0000201" + "00000003" + "300102" // at 100ns, from 192.0.2.1, 3 payload bytes

	goldenShardDone = "0000004106" + "0000000000000001" + "00000000" + "00000000" +
		"000000000000000a" + "0000000000000002" + "0000000000000001" + "000000000000002a" +
		"0000000005f5e100" + "0000000077359400"

	goldenCampaignDone = "0000000107"
)

func goldenSpec() CampaignSpec {
	return CampaignSpec{
		CampaignSeed: 42, SimSeed: -7, ScanDay: 15, ScanEpochs: 2,
		Rate: 5000, Batch: 64, Workers: 4, Retries: 2, Timeout: 8 * time.Second,
		TotalShards: 1,
		Faults: &netsim.FaultProfile{
			Loss: 0.05, RateLimit: 0.1, Mismatch: 0.01, Duplicate: 0.02, DupCopies: 3,
			Truncate: 0.01, Corrupt: 0.01, OffPath: 0.001, Jitter: 2 * time.Millisecond,
		},
	}
}

func goldenResult() *scanner.Result {
	return &scanner.Result{
		Sent: 10, Retried: 2, OffPath: 1, ProbeMsgID: 42,
		Started:  time.Unix(0, 100_000_000).UTC(),
		Finished: time.Unix(0, 2_000_000_000).UTC(),
		Responses: []scanner.Response{
			{At: time.Unix(0, 100).UTC(), Src: netip.MustParseAddr("192.0.2.1"), Payload: []byte{0x30, 0x01, 0x02}},
		},
	}
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

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func expectFrame(t *testing.T, what string, got []byte, want string) {
	t.Helper()
	if g := hex.EncodeToString(got); g != want {
		t.Fatalf("%s frame changed on the wire:\n got %s\nwant %s", what, g, want)
	}
}

func writeRaw(t *testing.T, w io.Writer, frame string) {
	t.Helper()
	if _, err := w.Write(mustHex(t, frame)); err != nil {
		t.Fatalf("write frame: %v", err)
	}
}

// goldenRunner checks the lease it was handed and waits for the test to
// have seen a heartbeat before returning the golden result.
type goldenRunner struct {
	t        *testing.T
	heartbit chan struct{}
}

func (g goldenRunner) RunLease(ctx context.Context, spec CampaignSpec, lease Lease) (*scanner.Result, error) {
	if !reflect.DeepEqual(spec, goldenSpec()) {
		g.t.Errorf("golden campaign decoded as %+v", spec)
	}
	if lease != (Lease{Epoch: 1}) {
		g.t.Errorf("golden lease decoded as %+v", lease)
	}
	select {
	case <-g.heartbit:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return goldenResult(), nil
}

// TestGoldenFramesNode drives a real vantage node with golden coordinator
// frames and checks every frame it writes back.
func TestGoldenFramesNode(t *testing.T) {
	nodeEnd, coordEnd := net.Pipe()
	defer coordEnd.Close()
	heartbit := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- RunNode(context.Background(), nodeEnd, NodeConfig{
			Name: "golden", Runner: goldenRunner{t: t, heartbit: heartbit},
			HeartbeatEvery: time.Millisecond,
		})
	}()
	coordEnd.SetDeadline(time.Now().Add(10 * time.Second))

	expectFrame(t, "Hello", readRawFrame(t, coordEnd), goldenHello)
	writeRaw(t, coordEnd, goldenCampaign)
	writeRaw(t, coordEnd, goldenLease)
	expectFrame(t, "Heartbeat", readRawFrame(t, coordEnd), goldenHeartbeat)
	close(heartbit)
	frame := readRawFrame(t, coordEnd)
	for frame[4] == frameHeartbeat {
		frame = readRawFrame(t, coordEnd)
	}
	expectFrame(t, "Partial", frame, goldenPartial)
	expectFrame(t, "ShardDone", readRawFrame(t, coordEnd), goldenShardDone)
	writeRaw(t, coordEnd, goldenCampaignDone)
	if err := <-errc; err != nil {
		t.Fatalf("RunNode: %v", err)
	}
}

// TestGoldenFramesCoordinator drives a real coordinator with golden
// vantage frames and checks every frame it writes back.
func TestGoldenFramesCoordinator(t *testing.T) {
	c := NewCoordinator(CoordConfig{Spec: goldenSpec()})
	coordEnd, nodeEnd := net.Pipe()
	defer nodeEnd.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.handle(coordEnd)
	}()
	nodeEnd.SetDeadline(time.Now().Add(10 * time.Second))

	writeRaw(t, nodeEnd, goldenHello)
	expectFrame(t, "Campaign", readRawFrame(t, nodeEnd), goldenCampaign)
	expectFrame(t, "Lease", readRawFrame(t, nodeEnd), goldenLease)
	writeRaw(t, nodeEnd, goldenHeartbeat)
	writeRaw(t, nodeEnd, goldenPartial)
	writeRaw(t, nodeEnd, goldenShardDone)
	expectFrame(t, "CampaignDone", readRawFrame(t, nodeEnd), goldenCampaignDone)
	<-done

	out, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Merged, goldenResult(); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden frames merged as %+v, want %+v", got, want)
	}
}
