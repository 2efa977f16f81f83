package scanner

import (
	"net/netip"
	"slices"
	"testing"
)

// TestSendLogRoundTrip pins that the send log's compact records give back
// exactly the addresses they were logged from, including the pairs that
// share their 16 bytes: an IPv4 address and its v4-mapped IPv6 form, and
// one IPv6 address under different zones. Records must span several chunks
// and come back in send order.
func TestSendLogRoundTrip(t *testing.T) {
	distinct := []netip.Addr{
		netip.MustParseAddr("192.0.2.1"),
		netip.MustParseAddr("::ffff:192.0.2.1"),
		netip.MustParseAddr("fe80::1"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("fe80::1%eth1"),
		{},
	}
	var want []netip.Addr
	for i := 0; i < 3*sendChunkLen; i++ {
		// Long same-class runs, then single-record runs at the end.
		want = append(want, distinct[min(i/sendChunkLen, 1)])
	}
	want = append(want, distinct...)
	want = append(want, distinct[0], distinct[0])

	var l sendLog
	for i, a := range want {
		l.add(a, int64(i))
	}
	var got []netip.Addr
	l.each(func(addr [16]byte, class addrClass, at int64) {
		if at != int64(len(got)) {
			t.Fatalf("record %d carries offset %d", len(got), at)
		}
		got = append(got, class.addr(addr))
	})
	if !slices.Equal(got, want) {
		t.Fatalf("send log gave back %d addresses, want %d (first difference at %d)",
			len(got), len(want), firstDifference(got, want))
	}
}

func firstDifference(a, b []netip.Addr) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
