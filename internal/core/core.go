// Package core implements the paper's measurement primitive as a library:
// collecting unauthenticated SNMPv3 discovery responses into per-IP
// observations carrying the three identifiers (engine ID, engine boots,
// engine time / last reboot), probing single targets, and fingerprinting
// vendors from engine IDs.
//
// The full pipeline composes this package with internal/scanner (campaigns),
// internal/filter (Section 4.4 validation), and internal/alias (Section 5
// alias resolution).
package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"snmpv3fp/internal/ber"
	"snmpv3fp/internal/engineid"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/snmp"
)

// Observation is the merged per-IP result of one scan campaign.
type Observation struct {
	IP netip.Addr
	// EngineID is the reported authoritative engine ID; nil when the
	// response carried none.
	EngineID []byte
	// EngineBoots and EngineTime are the USM timeliness values.
	EngineBoots int64
	EngineTime  int64
	// ReceivedAt is when the first response packet arrived.
	ReceivedAt time.Time
	// Packets counts response datagrams from this IP (>1 for the paper's
	// multi-response anomaly).
	Packets int
	// Inconsistent marks IPs that returned differing engine IDs within a
	// single campaign.
	Inconsistent bool
}

// LastReboot derives the device's last SNMP-engine restart instant by
// subtracting the engine time from the packet receive time (Section 4.3).
func (o *Observation) LastReboot() time.Time {
	return o.ReceivedAt.Add(-time.Duration(o.EngineTime) * time.Second)
}

// FloodCap bounds how many datagrams per source Collect parses for engine
// ID consistency. Sources exceeding it (the paper's Section 8 amplifiers
// answer a single probe with tens of thousands of duplicates) keep their
// packet counts but stop costing a parse per duplicate.
const FloodCap = 64

// Campaign is the per-IP view of one scan.
type Campaign struct {
	ByIP map[netip.Addr]*Observation
	// Malformed counts response datagrams that did not parse as SNMPv3,
	// duplicates from already-seen sources included.
	Malformed int
	// Truncated is the subset of Malformed that failed with a truncation
	// error: the datagram was cut short in transit.
	Truncated int
	// Mismatched counts datagrams that parsed but echoed a msgID other
	// than the campaign's probe msgID: corrupted or forged responses that
	// cannot belong to any probe slot. They never enter ByIP.
	Mismatched int
	// OffPath counts datagrams the scan engine rejected because their
	// source was never probed (copied from the scanner Result).
	OffPath int
	// Duplicates counts datagrams beyond the first from each source.
	Duplicates int
	// FloodCapped counts duplicate datagrams past the per-source FloodCap
	// that were tallied but not parsed.
	FloodCapped int
	// TotalPackets counts all response datagrams, duplicates included.
	TotalPackets int
	Started      time.Time
	Finished     time.Time
}

// SortedIPs returns the campaign's responsive addresses in address order,
// for deterministic iteration in writers, ingesters and reports.
func (c *Campaign) SortedIPs() []netip.Addr {
	out := make([]netip.Addr, 0, len(c.ByIP))
	for ip := range c.ByIP {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// MultiResponders returns how many IPs answered with more than one packet.
func (c *Campaign) MultiResponders() int {
	n := 0
	for _, o := range c.ByIP {
		if o.Packets > 1 {
			n++
		}
	}
	return n
}

// Collect folds raw scan responses into per-IP observations, validating
// each datagram on the way in (the collection half of the paper's hostile
// network defenses):
//
//   - datagrams that fail to parse as SNMPv3 are counted in Malformed
//     (Truncated when cut short), first packets and duplicates alike;
//   - datagrams whose echoed msgID does not match the campaign's probe
//     msgID (when the Result carries one) are counted in Mismatched and
//     dropped — a response that answers no probe we sent proves nothing;
//   - per-source floods are tallied in full but parsed only up to FloodCap
//     datagrams per source;
//   - IPs whose responses disagree on the engine ID within the campaign are
//     flagged Inconsistent.
//
// Off-path datagrams were already rejected by the scan engine; their count
// is carried over from the Result.
func Collect(res *scanner.Result) *Campaign {
	c := &Campaign{
		ByIP:     make(map[netip.Addr]*Observation, len(res.Responses)),
		OffPath:  int(res.OffPath),
		Started:  res.Started,
		Finished: res.Finished,
	}
	// One response struct serves the whole fold: ParseDiscoveryResponseInto
	// resets it per datagram, and its EngineID field aliases the datagram's
	// payload (owned by the Result), so retaining it in an Observation is as
	// safe as it was with the allocating parser.
	var dr snmp.DiscoveryResponse
	dr.ReportOID = make([]uint32, 0, 16)
	for i := range res.Responses {
		r := &res.Responses[i]
		c.TotalPackets++
		obs, seen := c.ByIP[r.Src]
		if seen {
			c.Duplicates++
			obs.Packets++
			if obs.Packets > FloodCap {
				c.FloodCapped++
				continue
			}
			// Only parse duplicates far enough to check consistency.
			err := snmp.ParseDiscoveryResponseInto(&dr, r.Payload)
			switch {
			case err != nil:
				c.noteMalformed(err)
			case res.ProbeMsgID != 0 && dr.MsgID != res.ProbeMsgID:
				c.Mismatched++
			case string(dr.EngineID) != string(obs.EngineID):
				obs.Inconsistent = true
			}
			continue
		}
		if err := snmp.ParseDiscoveryResponseInto(&dr, r.Payload); err != nil {
			c.noteMalformed(err)
			continue
		}
		if res.ProbeMsgID != 0 && dr.MsgID != res.ProbeMsgID {
			c.Mismatched++
			continue
		}
		c.ByIP[r.Src] = &Observation{
			IP:          r.Src,
			EngineID:    dr.EngineID,
			EngineBoots: dr.EngineBoots,
			EngineTime:  dr.EngineTime,
			ReceivedAt:  r.At,
			Packets:     1,
		}
	}
	return c
}

// noteMalformed records one unparseable datagram, distinguishing transit
// truncation from other damage.
func (c *Campaign) noteMalformed(err error) {
	c.Malformed++
	if errors.Is(err, ber.ErrTruncated) {
		c.Truncated++
	}
}

// Fingerprint is a vendor inference for one device.
type Fingerprint struct {
	// Vendor is the inferred vendor label, "" when unknown.
	Vendor string
	// Source is "oui" (highest confidence: MAC-format engine ID),
	// "enterprise" (IANA number embedded in the engine ID), or "".
	Source string
	// Format is the engine ID format category.
	Format engineid.Format
}

// FingerprintEngineID infers the vendor of the device behind an engine ID
// (Section 3.1, "SNMPv3-based Vendor Fingerprinting").
func FingerprintEngineID(id []byte) Fingerprint {
	p := engineid.Classify(id)
	vendor, source := p.Vendor()
	return Fingerprint{Vendor: vendor, Source: source, Format: p.Format}
}

// VendorLabel returns the vendor, or the paper's "unknown vendor" label.
func (f Fingerprint) VendorLabel() string {
	if f.Vendor == "" {
		return "unknown"
	}
	return f.Vendor
}

// ProbeContext sends a single discovery request to addr over tr and waits
// for the matching report: the one-packet-per-target primitive of the paper,
// exposed for interactive use (see examples/quickstart). Load-balanced VIPs
// hand different connections to different backends, so varying msgID across
// repeated probes exposes identity cycling (the NAT/load-balancer inference
// of the paper's conclusion).
//
// Cancelling ctx abandons the wait and returns ctx's error. The receive
// goroutine then lingers only until the transport delivers its next datagram
// or is closed by the caller.
func ProbeContext(ctx context.Context, tr scanner.Transport, addr netip.Addr, msgID int64, timeout time.Duration) (*Observation, error) {
	probe := snmp.AppendDiscoveryRequest(nil, msgID, msgID)
	if err := tr.Send(addr, probe); err != nil {
		return nil, err
	}
	// Transports with pooled receive buffers get every payload back: the
	// parsed engine ID is cloned out of the buffer before release, and
	// skipped datagrams are released unparsed.
	releaser, _ := tr.(scanner.PayloadReleaser)
	release := func(p []byte) {
		if releaser != nil {
			releaser.ReleasePayload(p)
		}
	}
	type recvResult struct {
		obs *Observation
		err error
	}
	done := make(chan recvResult, 1)
	go func() {
		var dr snmp.DiscoveryResponse
		for {
			src, payload, at, err := tr.Recv()
			if err != nil {
				done <- recvResult{nil, err}
				return
			}
			if src != addr {
				release(payload)
				continue
			}
			if err := snmp.ParseDiscoveryResponseInto(&dr, payload); err != nil {
				release(payload)
				continue
			}
			engineID := dr.EngineID
			if engineID != nil {
				engineID = append(make([]byte, 0, len(engineID)), engineID...)
			}
			release(payload)
			done <- recvResult{&Observation{
				IP:          src,
				EngineID:    engineID,
				EngineBoots: dr.EngineBoots,
				EngineTime:  dr.EngineTime,
				ReceivedAt:  at,
				Packets:     1,
			}, nil}
			return
		}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.obs, r.err
	case <-ctx.Done():
		return nil, fmt.Errorf("core: probe of %v: %w", addr, ctx.Err())
	case <-timer.C:
		return nil, fmt.Errorf("core: no response from %v within %v", addr, timeout)
	}
}
