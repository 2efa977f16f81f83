package scanner

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"strconv"
	"time"

	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/vclock"
)

// scanMetrics holds the engine's cached metric handles. Every field is
// nil-safe: with no registry configured the handles are nil and each
// instrumentation point costs one nil check.
type scanMetrics struct {
	sent      *obs.Counter
	retried   *obs.Counter
	received  *obs.Counter
	offPath   *obs.Counter
	sendErrs  *obs.Counter
	passes    *obs.Counter
	timeouts  *obs.Counter
	shardSent []*obs.Counter
	inflight  *obs.Gauge
	drift     *obs.Gauge
	paceLag   *obs.Gauge
	rtt       *obs.Histogram
	batchSize *obs.Histogram
	sysSaved  *obs.Counter
	tracer    *obs.Tracer
}

// newScanMetrics registers (or re-attaches to) the scanner metric families.
// The tracer times spans on the campaign clock, so simulated campaigns
// export deterministic span histograms.
func newScanMetrics(reg *obs.Registry, clock vclock.Clock, workers int) *scanMetrics {
	m := &scanMetrics{
		sent:      reg.Counter("snmpfp_scan_probes_sent_total"),
		retried:   reg.Counter("snmpfp_scan_retries_total"),
		received:  reg.Counter("snmpfp_scan_responses_total"),
		offPath:   reg.Counter("snmpfp_scan_offpath_rejected_total"),
		sendErrs:  reg.Counter("snmpfp_scan_send_errors_total"),
		passes:    reg.Counter("snmpfp_scan_passes_total"),
		timeouts:  reg.Counter("snmpfp_scan_unanswered_total"),
		inflight:  reg.Gauge("snmpfp_scan_inflight_workers"),
		drift:     reg.Gauge("snmpfp_scan_vclock_drift_seconds"),
		paceLag:   reg.Gauge("snmpfp_scan_pace_lag_seconds"),
		rtt:       reg.Histogram("snmpfp_scan_probe_rtt_seconds", nil),
		batchSize: reg.Histogram("snmpfp_scan_send_batch_datagrams", obs.ExpBuckets(1, 2, 12)),
		sysSaved:  reg.Counter("snmpfp_scan_batch_syscalls_saved_total"),
		tracer:    obs.NewTracer(reg, clock),
	}
	reg.Help("snmpfp_scan_probes_sent_total", "probes transmitted, retries included")
	reg.Help("snmpfp_scan_retries_total", "probes re-sent by retry passes")
	reg.Help("snmpfp_scan_responses_total", "response datagrams captured")
	reg.Help("snmpfp_scan_offpath_rejected_total", "datagrams rejected: source never probed")
	reg.Help("snmpfp_scan_send_errors_total", "failed Send calls")
	reg.Help("snmpfp_scan_passes_total", "send passes completed (initial sweep + retries)")
	reg.Help("snmpfp_scan_unanswered_total", "targets that never responded by campaign end")
	reg.Help("snmpfp_scan_inflight_workers", "send workers currently running")
	reg.Help("snmpfp_scan_vclock_drift_seconds", "campaign-clock elapsed minus wall elapsed")
	reg.Help("snmpfp_scan_pace_lag_seconds", "per-worker realized send timeline behind the deadline timeline at pass end")
	reg.Help("snmpfp_scan_probe_rtt_seconds", "probe-to-response round-trip time")
	reg.Help("snmpfp_scan_send_batch_datagrams", "datagrams accepted per batch send operation")
	reg.Help("snmpfp_scan_batch_syscalls_saved_total", "per-datagram send operations avoided by batching (n-1 per accepted batch)")
	m.shardSent = make([]*obs.Counter, workers)
	for i := range m.shardSent {
		m.shardSent[i] = reg.Counter("snmpfp_scan_shard_probes_sent_total",
			obs.L("shard", strconv.Itoa(i)))
	}
	reg.Help("snmpfp_scan_shard_probes_sent_total", "per-worker probes transmitted")
	return m
}

// sendRec is one logged probe transmission: the destination's 16 address
// bytes and the send instant as at.Sub(startClock), the engine's base
// instant. startClock.Add(offset) restores the instant for time.Time.Sub,
// monotonic reading included on real clocks. 24 bytes and no pointers, so
// the GC never scans a send log.
type sendRec struct {
	addr [16]byte
	at   int64
}

// sendChunkLen sizes one send-log chunk (96 KiB of records).
const sendChunkLen = 4096

// addrClass is what a netip.Addr holds beyond its 16 bytes: the bit length
// (0 for the zero Addr, 32 or 128) and the IPv6 zone. It is what tells an
// IPv4 address apart from its v4-mapped IPv6 form.
type addrClass struct {
	bits int
	zone string
}

// addr rebuilds the netip.Addr a record of this class was logged from.
func (c addrClass) addr(b [16]byte) netip.Addr {
	switch c.bits {
	case 32:
		return netip.AddrFrom4([4]byte(b[12:]))
	case 128:
		return netip.AddrFrom16(b).WithZone(c.zone)
	}
	return netip.Addr{}
}

// classRun starts a run of same-class records at log index start. A
// single-family campaign logs one run per worker per pass.
type classRun struct {
	start int
	class addrClass
}

// sendLog is one worker's transmissions in the current pass, held in
// fixed-size chunks (allocated once each, never regrown by copying) like the
// capture's response chunks. Only its worker appends to it.
type sendLog struct {
	chunks [][]sendRec // filled chunks, in send order
	cur    []sendRec   // chunk being filled
	n      int
	runs   []classRun
}

// add logs one transmission, opening a new class run when dst's class
// differs from the previous record's.
func (l *sendLog) add(dst netip.Addr, at int64) {
	if r := len(l.runs); r == 0 || dst.BitLen() != l.runs[r-1].class.bits || dst.Zone() != l.runs[r-1].class.zone {
		l.runs = append(l.runs, classRun{start: l.n, class: addrClass{bits: dst.BitLen(), zone: dst.Zone()}})
	}
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.chunks = append(l.chunks, l.cur)
		}
		l.cur = make([]sendRec, 0, sendChunkLen)
	}
	l.cur = append(l.cur, sendRec{addr: dst.As16(), at: at})
	l.n++
}

// each calls fn for every logged transmission in send order.
func (l *sendLog) each(fn func(addr [16]byte, class addrClass, at int64)) {
	i, run := 0, 0
	visit := func(recs []sendRec) {
		for _, r := range recs {
			if run+1 < len(l.runs) && l.runs[run+1].start == i {
				run++
			}
			fn(r.addr, l.runs[run].class, r.at)
			i++
		}
	}
	for _, c := range l.chunks {
		visit(c)
	}
	visit(l.cur)
}

// addrFilter is a one-hash bitset over 16-byte address keys, at 16 bits
// per key (a false-positive rate near 1/16). Most probes of a pass go
// unanswered; the filter lets their send records skip the exact lookup.
type addrFilter struct {
	bits  []uint64
	shift uint
}

func newAddrFilter(keys int) addrFilter {
	logBits := uint(10)
	for 1<<logBits < 16*keys {
		logBits++
	}
	return addrFilter{bits: make([]uint64, 1<<(logBits-6)), shift: 64 - logBits}
}

// index hashes the key onto the filter's bits (multiplicative hashing;
// the top bits of the product are the well-mixed ones).
func (f addrFilter) index(k [16]byte) uint64 {
	h := binary.LittleEndian.Uint64(k[:8])*0x9E3779B97F4A7C15 ^ binary.LittleEndian.Uint64(k[8:])
	return (h * 0xC2B2AE3D27D4EB4F) >> f.shift
}

func (f addrFilter) add(k [16]byte) {
	i := f.index(k)
	f.bits[i>>6] |= 1 << (i & 63)
}

func (f addrFilter) mayContain(k [16]byte) bool {
	i := f.index(k)
	return f.bits[i>>6]&(1<<(i&63)) != 0
}

// noteRTTSends logs a run of transmissions when RTT observation is enabled.
// ats carries per-probe logical send instants (logical mode); when ats is
// nil every probe is logged at fallbackAt, the instant the send call began.
func (e *engine) noteRTTSends(shard int, dsts []netip.Addr, ats []time.Time, fallbackAt time.Time) {
	if e.sendLogs == nil {
		return
	}
	log := e.sendLogs[shard]
	at := int64(fallbackAt.Sub(e.startClock))
	for i, dst := range dsts {
		if ats != nil {
			at = int64(ats[i].Sub(e.startClock))
		}
		log.add(dst, at)
	}
}

// noteBatchOp records one accepted batch operation: the batch-size histogram
// feeds the pps-vs-batch tuning curve, and every datagram beyond the first
// is one per-datagram send operation (syscall, on real sockets) avoided.
func (e *engine) noteBatchOp(n int) {
	if n <= 0 {
		return
	}
	e.metrics.batchSize.Observe(float64(n))
	if n > 1 {
		e.metrics.sysSaved.Add(uint64(n - 1))
	}
}

// observePassRTTs runs after the pass's quiesce barrier: every response the
// transport queued for this pass has been captured, so joining this pass's
// responses against its send logs yields exact per-probe round-trip times,
// resp.At minus the send instant of the same source in this pass (virtual
// durations under the virtual clock — deterministic across worker counts).
// Responses predating this pass's probe of the same source (late arrivals
// from the previous pass) yield non-positive durations and are skipped, as
// are responses from sources this pass did not probe.
//
// The join is keyed on the responses, a few percent of the probes: the
// send logs stream through a lookup over this pass's response sources
// rather than a lookup being built over every probe. When a source was
// logged twice, its last send in worker order counts. The RTTs are observed
// in ascending order, so the histogram's float sum does not depend on the
// order responses were captured in.
func (e *engine) observePassRTTs() {
	if e.sendLogs == nil {
		return
	}
	// This pass's captures, from the previous pass's high-water mark on.
	// Captured responses are never rewritten (capture only appends), so the
	// slices taken under the lock stay valid to read after it is released.
	var pass [][]Response
	n := 0
	e.mu.Lock()
	idx := 0
	take := func(c []Response) {
		if idx+len(c) > e.rttMark {
			tail := c[max(e.rttMark-idx, 0):]
			pass = append(pass, tail)
			n += len(tail)
		}
		idx += len(c)
	}
	for _, c := range e.respChunks {
		take(c)
	}
	take(e.respCur)
	e.rttMark = idx
	e.mu.Unlock()

	type sendSlot struct {
		at   int64
		sent bool
	}
	slot := make(map[netip.Addr]int, n)
	filter := newAddrFilter(n)
	for _, c := range pass {
		for i := range c {
			if _, ok := slot[c[i].Src]; !ok {
				slot[c[i].Src] = len(slot)
				filter.add(c[i].Src.As16())
			}
		}
	}
	sent := make([]sendSlot, len(slot))
	for _, log := range e.sendLogs {
		log.each(func(addr [16]byte, class addrClass, at int64) {
			if !filter.mayContain(addr) {
				return
			}
			if j, ok := slot[class.addr(addr)]; ok {
				sent[j] = sendSlot{at: at, sent: true}
			}
		})
		*log = sendLog{}
	}
	rtts := make([]time.Duration, 0, n)
	for _, c := range pass {
		for i := range c {
			if s := sent[slot[c[i].Src]]; s.sent {
				if d := c[i].At.Sub(e.startClock.Add(time.Duration(s.at))); d > 0 {
					rtts = append(rtts, d)
				}
			}
		}
	}
	slices.Sort(rtts)
	for _, d := range rtts {
		e.metrics.rtt.ObserveDuration(d)
	}
}

// observeDrift publishes how far the campaign clock has run ahead of the
// wall clock — hours-per-second under the virtual clock, ~0 for real scans.
func (e *engine) observeDrift() {
	if e.metrics.drift == nil {
		return
	}
	virtual := e.cfg.Clock.Now().Sub(e.startClock)
	wall := time.Since(e.startWall)
	e.metrics.drift.Set((virtual - wall).Seconds())
}
