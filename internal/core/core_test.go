package core

import (
	"context"
	"io"
	"net/netip"
	"testing"
	"time"

	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/snmp"
)

func report(engineID []byte, boots, etime int64) []byte {
	req := snmp.NewDiscoveryRequest(1, 1)
	wire, err := snmp.NewDiscoveryReport(req, engineID, boots, etime, 1).Encode()
	if err != nil {
		panic(err)
	}
	return wire
}

func TestCollect(t *testing.T) {
	t0 := time.Date(2021, 4, 16, 12, 0, 0, 0, time.UTC)
	id := engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 1, 2, 3})
	res := &scanner.Result{
		Responses: []scanner.Response{
			{Src: netip.MustParseAddr("192.0.2.1"), Payload: report(id, 5, 3600), At: t0},
			{Src: netip.MustParseAddr("192.0.2.2"), Payload: []byte("garbage"), At: t0},
			{Src: netip.MustParseAddr("192.0.2.3"), Payload: report(id, 7, 60), At: t0},
			{Src: netip.MustParseAddr("192.0.2.3"), Payload: report(id, 7, 60), At: t0.Add(time.Second)},
		},
	}
	c := Collect(res)
	if len(c.ByIP) != 2 {
		t.Fatalf("IPs = %d", len(c.ByIP))
	}
	if c.Malformed != 1 {
		t.Errorf("malformed = %d", c.Malformed)
	}
	if c.TotalPackets != 4 {
		t.Errorf("total packets = %d", c.TotalPackets)
	}
	o1 := c.ByIP[netip.MustParseAddr("192.0.2.1")]
	if o1.EngineBoots != 5 || o1.EngineTime != 3600 {
		t.Errorf("obs1 = %+v", o1)
	}
	want := t0.Add(-3600 * time.Second)
	if !o1.LastReboot().Equal(want) {
		t.Errorf("last reboot = %v, want %v", o1.LastReboot(), want)
	}
	o3 := c.ByIP[netip.MustParseAddr("192.0.2.3")]
	if o3.Packets != 2 {
		t.Errorf("packets = %d", o3.Packets)
	}
	if o3.Inconsistent {
		t.Error("identical duplicates should not be inconsistent")
	}
	if c.MultiResponders() != 1 {
		t.Errorf("multi responders = %d", c.MultiResponders())
	}
}

func TestCollectInconsistentWithinScan(t *testing.T) {
	t0 := time.Now()
	ip := netip.MustParseAddr("192.0.2.8")
	idA := engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 1, 1, 1})
	idB := engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 2, 2, 2})
	res := &scanner.Result{
		Responses: []scanner.Response{
			{Src: ip, Payload: report(idA, 1, 1), At: t0},
			{Src: ip, Payload: report(idB, 1, 1), At: t0},
		},
	}
	c := Collect(res)
	if !c.ByIP[ip].Inconsistent {
		t.Error("flapping engine ID not flagged")
	}
}

func TestFingerprintEngineID(t *testing.T) {
	fp := FingerprintEngineID(engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 1, 2, 3}))
	if fp.Vendor != "Cisco" || fp.Source != "oui" {
		t.Errorf("fp = %+v", fp)
	}
	if fp.VendorLabel() != "Cisco" {
		t.Error("label wrong")
	}
	unknown := FingerprintEngineID([]byte{1, 2, 3})
	if unknown.Vendor != "" || unknown.VendorLabel() != "unknown" {
		t.Errorf("unknown fp = %+v", unknown)
	}
	netsnmp := FingerprintEngineID(engineid.NewNetSNMP([8]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if netsnmp.Vendor != "Net-SNMP" || netsnmp.Source != "enterprise" {
		t.Errorf("netsnmp fp = %+v", netsnmp)
	}
}

// memTransport is a test double delivering canned responses.
type memTransport struct {
	responses chan scanner.Response
	sent      []netip.Addr
	answer    func(dst netip.Addr) [][]byte
}

func newMemTransport(answer func(dst netip.Addr) [][]byte) *memTransport {
	return &memTransport{responses: make(chan scanner.Response, 64), answer: answer}
}

func (m *memTransport) Send(dst netip.Addr, payload []byte) error {
	m.sent = append(m.sent, dst)
	for _, r := range m.answer(dst) {
		m.responses <- scanner.Response{Src: dst, Payload: r, At: time.Now()}
	}
	return nil
}

func (m *memTransport) Recv() (netip.Addr, []byte, time.Time, error) {
	r, ok := <-m.responses
	if !ok {
		return netip.Addr{}, nil, time.Time{}, io.EOF
	}
	return r.Src, r.Payload, r.At, nil
}

func (m *memTransport) Close() error {
	close(m.responses)
	return nil
}

func TestProbe(t *testing.T) {
	id := engineid.NewMAC(2011, [6]byte{0x48, 0x46, 0xfb, 1, 2, 3})
	tr := newMemTransport(func(dst netip.Addr) [][]byte {
		return [][]byte{report(id, 42, 100)}
	})
	obs, err := ProbeContext(context.Background(), tr, netip.MustParseAddr("192.0.2.5"), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if obs.EngineBoots != 42 || obs.EngineTime != 100 {
		t.Errorf("obs = %+v", obs)
	}
}

func TestProbeTimeout(t *testing.T) {
	tr := newMemTransport(func(dst netip.Addr) [][]byte { return nil })
	defer tr.Close()
	_, err := ProbeContext(context.Background(), tr, netip.MustParseAddr("192.0.2.5"), 1, 50*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout")
	}
}

func TestProbeIgnoresOtherSources(t *testing.T) {
	id := engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 9, 9, 9})
	target := netip.MustParseAddr("192.0.2.5")
	other := netip.MustParseAddr("203.0.113.9")
	tr := newMemTransport(nil)
	tr.answer = func(dst netip.Addr) [][]byte { return nil }
	// Pre-load a response from the wrong source, then the right one.
	tr.responses <- scanner.Response{Src: other, Payload: report(id, 1, 1), At: time.Now()}
	tr.responses <- scanner.Response{Src: target, Payload: report(id, 2, 2), At: time.Now()}
	obs, err := ProbeContext(context.Background(), tr, target, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if obs.IP != target || obs.EngineBoots != 2 {
		t.Errorf("obs = %+v", obs)
	}
}

func TestCollectMalformedDuplicate(t *testing.T) {
	t0 := time.Date(2021, 4, 16, 12, 0, 0, 0, time.UTC)
	id := engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 1, 2, 3})
	src := netip.MustParseAddr("192.0.2.1")
	res := &scanner.Result{
		Responses: []scanner.Response{
			{Src: src, Payload: report(id, 5, 3600), At: t0},
			{Src: src, Payload: []byte("garbage"), At: t0.Add(time.Second)},
		},
	}
	c := Collect(res)
	if c.Malformed != 1 {
		t.Errorf("malformed = %d, want 1 (duplicates count too)", c.Malformed)
	}
	if c.Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", c.Duplicates)
	}
	o := c.ByIP[src]
	if o == nil || o.Packets != 2 {
		t.Fatalf("obs = %+v, want 2 packets", o)
	}
	if o.Inconsistent {
		t.Error("a malformed duplicate is not evidence of engine ID inconsistency")
	}
}

func TestCollectMalformedFirstThenValid(t *testing.T) {
	// A garbage datagram arriving before the real response must not mask
	// the source: the later valid response still yields an observation.
	t0 := time.Date(2021, 4, 16, 12, 0, 0, 0, time.UTC)
	id := engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 1, 2, 3})
	src := netip.MustParseAddr("192.0.2.1")
	res := &scanner.Result{
		Responses: []scanner.Response{
			{Src: src, Payload: []byte("garbage"), At: t0},
			{Src: src, Payload: report(id, 5, 3600), At: t0.Add(time.Second)},
		},
	}
	c := Collect(res)
	if c.Malformed != 1 {
		t.Errorf("malformed = %d, want 1", c.Malformed)
	}
	o := c.ByIP[src]
	if o == nil {
		t.Fatal("valid response after garbage produced no observation")
	}
	if o.EngineBoots != 5 || o.EngineTime != 3600 {
		t.Errorf("obs = %+v", o)
	}
	if c.TotalPackets != 2 {
		t.Errorf("total packets = %d", c.TotalPackets)
	}
}

func TestCollectMismatchedMsgID(t *testing.T) {
	// The test report helper echoes msgID 1; a campaign that probed with a
	// different msgID must reject the response as answering no probe slot.
	t0 := time.Date(2021, 4, 16, 12, 0, 0, 0, time.UTC)
	id := engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 1, 2, 3})
	src := netip.MustParseAddr("192.0.2.1")
	mk := func(probeID int64) *Campaign {
		return Collect(&scanner.Result{
			ProbeMsgID: probeID,
			Responses: []scanner.Response{
				{Src: src, Payload: report(id, 5, 3600), At: t0},
			},
		})
	}
	if c := mk(2); len(c.ByIP) != 0 || c.Mismatched != 1 {
		t.Errorf("probeID 2: byIP=%d mismatched=%d, want 0/1", len(c.ByIP), c.Mismatched)
	}
	if c := mk(1); len(c.ByIP) != 1 || c.Mismatched != 0 {
		t.Errorf("probeID 1: byIP=%d mismatched=%d, want 1/0", len(c.ByIP), c.Mismatched)
	}
	if c := mk(0); len(c.ByIP) != 1 || c.Mismatched != 0 {
		t.Errorf("probeID 0 (check disabled): byIP=%d mismatched=%d, want 1/0", len(c.ByIP), c.Mismatched)
	}
}

func TestCollectFloodCap(t *testing.T) {
	t0 := time.Date(2021, 4, 16, 12, 0, 0, 0, time.UTC)
	id := engineid.NewMAC(9, [6]byte{0x58, 0x8d, 0x09, 1, 2, 3})
	src := netip.MustParseAddr("192.0.2.1")
	res := &scanner.Result{}
	const total = FloodCap + 7
	for i := 0; i < total; i++ {
		res.Responses = append(res.Responses, scanner.Response{
			Src: src, Payload: report(id, 5, 3600), At: t0.Add(time.Duration(i) * time.Millisecond),
		})
	}
	c := Collect(res)
	o := c.ByIP[src]
	if o == nil || o.Packets != total {
		t.Fatalf("packet count must keep accumulating past the cap: %+v", o)
	}
	if c.FloodCapped != total-FloodCap {
		t.Errorf("floodCapped = %d, want %d", c.FloodCapped, total-FloodCap)
	}
	if c.Duplicates != total-1 {
		t.Errorf("duplicates = %d, want %d", c.Duplicates, total-1)
	}
}
