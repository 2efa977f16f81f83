// Package natinfer implements the follow-up inference the paper's
// conclusion proposes: using the SNMPv3 identifiers to detect NAT and load
// balancers in the wild (Section 9).
//
// A campaign sees one engine identity per IP per scan. An IP whose identity
// *changed between campaigns* is ambiguous: the address may have churned to
// a different subscriber, or it may be a load-balanced VIP whose probes
// reach different backends. The two are separable with a short burst of
// additional probes carrying distinct message IDs: a churned address
// answers with one stable (new) identity, while a VIP cycles through a
// small stable pool.
package natinfer

import (
	"context"
	"net/netip"
	"sort"
	"time"

	"snmpv3fp/internal/core"
	"snmpv3fp/internal/scanner"
)

// Verdict classifies a re-probed candidate.
type Verdict int

// Verdicts.
const (
	// Unresponsive: the burst got no answers.
	Unresponsive Verdict = iota
	// Stable: one identity answered every probe — the inter-campaign
	// change was address churn (or a one-off replacement).
	Stable
	// LoadBalanced: multiple identities alternate within the burst.
	LoadBalanced
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Stable:
		return "stable (churned address)"
	case LoadBalanced:
		return "load-balanced"
	default:
		return "unresponsive"
	}
}

// Result is the outcome for one candidate IP.
type Result struct {
	IP        netip.Addr
	Responses int
	// IDs are the distinct engine IDs observed, hex-keyed.
	IDs     map[string]int
	Verdict Verdict
}

// DistinctIDs counts the identities observed.
func (r *Result) DistinctIDs() int { return len(r.IDs) }

// Classify probes addr `burst` times with distinct message IDs and
// classifies the identity behaviour. The transport should be dedicated to
// this candidate: late responses from earlier timed-out probes to other
// addresses would otherwise interleave.
func Classify(tr scanner.Transport, addr netip.Addr, burst int, timeout time.Duration) *Result {
	r := &Result{IP: addr, IDs: map[string]int{}}
	for i := 0; i < burst; i++ {
		obs, err := core.ProbeContext(context.Background(), tr, addr, int64(1000+i), timeout)
		if err != nil || obs == nil {
			continue
		}
		r.Responses++
		r.IDs[string(obs.EngineID)]++
	}
	switch {
	case r.Responses == 0:
		r.Verdict = Unresponsive
	case len(r.IDs) >= 2:
		r.Verdict = LoadBalanced
	default:
		r.Verdict = Stable
	}
	return r
}

// Survey classifies every candidate and aggregates counts.
type Survey struct {
	Candidates   int
	Unresponsive int
	Stable       int
	LoadBalanced int
	// PoolSizes holds the distinct-identity count of each VIP found.
	PoolSizes []int
	// Results holds the per-candidate outcomes, in candidate order.
	Results []*Result
}

// Run sweeps the candidate list, opening a fresh transport per candidate.
// Candidates are typically the IPs whose engine ID disagreed between the
// two campaigns.
func Run(newTransport func() scanner.Transport, candidates []netip.Addr, burst int, timeout time.Duration) *Survey {
	s := &Survey{Candidates: len(candidates)}
	for _, addr := range candidates {
		tr := newTransport()
		res := Classify(tr, addr, burst, timeout)
		tr.Close()
		s.Results = append(s.Results, res)
		switch res.Verdict {
		case Unresponsive:
			s.Unresponsive++
		case Stable:
			s.Stable++
		case LoadBalanced:
			s.LoadBalanced++
			s.PoolSizes = append(s.PoolSizes, res.DistinctIDs())
		}
	}
	sort.Ints(s.PoolSizes)
	return s
}
