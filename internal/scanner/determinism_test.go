package scanner_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
)

// runSimCampaign scans a freshly generated tiny world so every invocation
// starts from identical simulator state; only the engine's worker count and
// retry budget vary. A non-nil fault profile turns on the netsim hostile
// path layer.
func runSimCampaign(t *testing.T, workers, retries int, faults *netsim.FaultProfile) *scanner.Result {
	t.Helper()
	w := netsim.Generate(netsim.TinyConfig(7))
	w.Cfg.Faults = faults
	w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
	w.BeginScan()
	targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scanner.ScanContext(context.Background(), w.NewTransport(), targets, scanner.Config{
		Rate: 5000, Batch: 256, Timeout: 8 * time.Second,
		Clock: w.Clock, Seed: 42, Workers: workers, Retries: retries,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultDigest serializes everything observable about a Result, so two
// digests are equal iff the campaigns are byte-identical.
func resultDigest(r *scanner.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d retried=%d offpath=%d msgid=%d started=%d finished=%d n=%d\n",
		r.Sent, r.Retried, r.OffPath, r.ProbeMsgID,
		r.Started.UnixNano(), r.Finished.UnixNano(), len(r.Responses))
	for _, resp := range r.Responses {
		fmt.Fprintf(&b, "%v %d %x\n", resp.Src, resp.At.UnixNano(), resp.Payload)
	}
	return b.String()
}

func TestScanDeterministicAcrossWorkerCounts(t *testing.T) {
	base := resultDigest(runSimCampaign(t, 1, 0, nil))
	if !strings.Contains(base, "\n") || strings.HasPrefix(base, "sent=0") {
		t.Fatalf("baseline campaign is empty: %q", base[:min(len(base), 80)])
	}
	for _, workers := range []int{4, 16} {
		got := resultDigest(runSimCampaign(t, workers, 0, nil))
		if got != base {
			t.Errorf("workers=%d: campaign result differs from workers=1\nbase: %s\ngot:  %s",
				workers, firstDiff(base, got), firstDiff(got, base))
		}
	}
}

func TestScanDeterministicWithRetries(t *testing.T) {
	base := resultDigest(runSimCampaign(t, 1, 1, nil))
	got := resultDigest(runSimCampaign(t, 4, 1, nil))
	if got != base {
		t.Errorf("retry campaign differs across worker counts\nbase: %s\ngot:  %s",
			firstDiff(base, got), firstDiff(got, base))
	}
}

// TestScanDeterministicUnderFaults is the tentpole acceptance check: with
// the full hostile fault profile active (loss, rate limiting, msgID
// rewriting, duplication, truncation, corruption, off-path spoofing,
// jitter), a campaign Result is still byte-identical across worker counts.
func TestScanDeterministicUnderFaults(t *testing.T) {
	base := resultDigest(runSimCampaign(t, 1, 0, netsim.FullHostileProfile()))
	if !strings.Contains(base, "offpath=") || strings.HasPrefix(base, "sent=0") {
		t.Fatalf("faulted baseline campaign is empty: %q", base[:min(len(base), 120)])
	}
	for _, workers := range []int{4, 16} {
		got := resultDigest(runSimCampaign(t, workers, 0, netsim.FullHostileProfile()))
		if got != base {
			t.Errorf("workers=%d: faulted campaign differs from workers=1\nbase: %s\ngot:  %s",
				workers, firstDiff(base, got), firstDiff(got, base))
		}
	}
}

// TestScanRejectsOffPathSources pins the engine-side defense: spoofed
// datagrams from sources outside the target space never reach Responses and
// are tallied in OffPath instead.
func TestScanRejectsOffPathSources(t *testing.T) {
	res := runSimCampaign(t, 4, 0, netsim.FullHostileProfile())
	if res.OffPath == 0 {
		t.Fatal("hostile campaign saw no off-path datagrams")
	}
	for _, r := range res.Responses {
		if !r.Src.Is4() {
			t.Fatalf("IPv4 campaign captured non-IPv4 source %v", r.Src)
		}
		if b := r.Src.As4(); b[0] >= 0xF0 {
			t.Fatalf("spoofed class-E source %v reached Responses", r.Src)
		}
	}
}

// firstDiff returns the first line of a where a and b diverge, for readable
// failure output (full digests run to thousands of lines).
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q", i, la[i])
		}
	}
	return "(prefix equal)"
}
