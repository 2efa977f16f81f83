package scanner_test

import (
	"context"
	"net/netip"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"snmpv3fp/internal/netsim"
	"snmpv3fp/internal/scanner"
)

// runBatchCampaign is runSimCampaign with the engine batch size and the
// transport wrapping under test control. It returns the Result, the final
// progress Snapshot (for send-error accounting) and the world (for the
// fault-injection tally).
func runBatchCampaign(t *testing.T, workers, batch int, faults *netsim.FaultProfile,
	wrap func(*netsim.Transport) scanner.Transport) (*scanner.Result, scanner.Snapshot, *netsim.World) {
	t.Helper()
	w := netsim.Generate(netsim.TinyConfig(7))
	w.Cfg.Faults = faults
	w.Clock.Set(w.Cfg.StartTime.Add(15 * 24 * time.Hour))
	w.BeginScan()
	targets, err := scanner.NewPrefixSpace(w.ScanPrefixes4(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var tr scanner.Transport = w.NewTransport()
	if wrap != nil {
		tr = wrap(tr.(*netsim.Transport))
	}
	var last scanner.Snapshot
	res, err := scanner.ScanContext(context.Background(), tr, targets, scanner.Config{
		Rate: 5000, Batch: batch, Timeout: 8 * time.Second,
		Clock: w.Clock, Seed: 42, Workers: workers,
		Progress: func(s scanner.Snapshot) { last = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, last, w
}

// TestScanDeterministicAcrossBatchSizes is the tentpole acceptance check for
// the batch transport API: with the full hostile fault profile active, a
// campaign Result is byte-identical at every (batch size, worker count)
// combination — batching is an execution strategy, never an observable.
func TestScanDeterministicAcrossBatchSizes(t *testing.T) {
	baseRes, _, _ := runBatchCampaign(t, 4, 256, netsim.FullHostileProfile(), nil)
	base := resultDigest(baseRes)
	if !strings.Contains(base, "offpath=") || strings.HasPrefix(base, "sent=0") {
		t.Fatalf("baseline campaign is empty: %q", base[:min(len(base), 120)])
	}
	for _, batch := range []int{1, 8, 64} {
		for _, workers := range []int{1, 4, 16} {
			res, _, _ := runBatchCampaign(t, workers, batch, netsim.FullHostileProfile(), nil)
			if got := resultDigest(res); got != base {
				t.Errorf("batch=%d workers=%d: campaign differs from batch=256 workers=4\nbase: %s\ngot:  %s",
					batch, workers, firstDiff(base, got), firstDiff(got, base))
			}
		}
	}
}

// scalarTransport hides the batch capabilities of a netsim transport while
// forwarding every scalar one the engine probes for, so a campaign over it
// exercises the per-probe code paths against the same simulator.
type scalarTransport struct {
	tr *netsim.Transport
}

func (s *scalarTransport) Send(dst netip.Addr, payload []byte) error { return s.tr.Send(dst, payload) }
func (s *scalarTransport) SendAt(dst netip.Addr, payload []byte, at time.Time) error {
	return s.tr.SendAt(dst, payload, at)
}
func (s *scalarTransport) Recv() (netip.Addr, []byte, time.Time, error) { return s.tr.Recv() }
func (s *scalarTransport) Close() error                                 { return s.tr.Close() }
func (s *scalarTransport) QueuedResponses() uint64                      { return s.tr.QueuedResponses() }
func (s *scalarTransport) ReleasePayload(p []byte)                      { s.tr.ReleasePayload(p) }

// TestScanScalarPathMatchesBatched pins the batched/unbatched equivalence
// directly: the same hostile campaign through a transport stripped of the
// batch interfaces produces the identical Result.
func TestScanScalarPathMatchesBatched(t *testing.T) {
	batchedRes, _, _ := runBatchCampaign(t, 4, 256, netsim.FullHostileProfile(), nil)
	scalarRes, _, _ := runBatchCampaign(t, 4, 256, netsim.FullHostileProfile(),
		func(tr *netsim.Transport) scanner.Transport { return &scalarTransport{tr: tr} })
	base, got := resultDigest(batchedRes), resultDigest(scalarRes)
	if got != base {
		t.Errorf("scalar-path campaign differs from batched\nbatched: %s\nscalar:  %s",
			firstDiff(base, got), firstDiff(got, base))
	}
}

// choppyTransport accepts at most half of every third batch and reports the
// rest as a transient failure, exercising the engine's partial-send resume
// and retry-with-backoff path on every worker.
type choppyTransport struct {
	*netsim.Transport
	calls atomic.Int64
}

func (c *choppyTransport) SendBatchAt(dsts []netip.Addr, payload []byte, ats []time.Time) (int, error) {
	if c.calls.Add(1)%3 == 0 && len(dsts) > 1 {
		k := len(dsts) / 2
		n, err := c.Transport.SendBatchAt(dsts[:k], payload, ats[:k])
		if err != nil {
			return n, err
		}
		return n, syscall.ENOBUFS
	}
	return c.Transport.SendBatchAt(dsts, payload, ats)
}

// TestScanChoppyBatchesMatch runs the hostile campaign through a transport
// that keeps truncating batches mid-flight: the engine must resume from the
// first unsent destination and still deliver the byte-identical Result.
func TestScanChoppyBatchesMatch(t *testing.T) {
	baseRes, _, _ := runBatchCampaign(t, 4, 256, netsim.FullHostileProfile(), nil)
	choppyRes, snap, _ := runBatchCampaign(t, 4, 256, netsim.FullHostileProfile(),
		func(tr *netsim.Transport) scanner.Transport { return &choppyTransport{Transport: tr} })
	base, got := resultDigest(baseRes), resultDigest(choppyRes)
	if got != base {
		t.Errorf("choppy-batch campaign differs from clean batching\nbase:   %s\nchoppy: %s",
			firstDiff(base, got), firstDiff(got, base))
	}
	if snap.SendErrors == 0 {
		t.Error("choppy transport returned transient errors but Snapshot.SendErrors == 0")
	}
}

// TestScanTransientSendErrorsRecovered is the satellite bugfix check: with
// netsim injecting one ENOBUFS per fault-selected destination (as sendmmsg
// does under buffer pressure at line rate), the engine retries with backoff
// instead of aborting, and the delivered campaign is byte-identical to an
// unfaulted run. The pre-fix engine failed the whole campaign on the first
// transient errno.
func TestScanTransientSendErrorsRecovered(t *testing.T) {
	cleanRes, _, _ := runBatchCampaign(t, 4, 256, nil, nil)
	faultRes, snap, w := runBatchCampaign(t, 4, 256, &netsim.FaultProfile{SendErr: 0.05}, nil)
	base, got := resultDigest(cleanRes), resultDigest(faultRes)
	if got != base {
		t.Errorf("campaign with transient send errors differs from clean run\nclean:   %s\nfaulted: %s",
			firstDiff(base, got), firstDiff(got, base))
	}
	if snap.SendErrors == 0 {
		t.Error("fault profile injected send errors but Snapshot.SendErrors == 0")
	}
	if n := w.FaultStats().TransientSendErrs; n == 0 {
		t.Error("world tallied no transient send errors")
	}
}

// TestTransientSendError pins the errno classification behind the retry
// policy.
func TestTransientSendError(t *testing.T) {
	for _, err := range []error{
		syscall.ENOBUFS, syscall.EAGAIN, syscall.EWOULDBLOCK, syscall.ENOMEM, syscall.EINTR,
	} {
		if !scanner.TransientSendError(err) {
			t.Errorf("%v should be transient", err)
		}
		if !scanner.TransientSendError(wrapErr{err}) {
			t.Errorf("wrapped %v should be transient", err)
		}
	}
	for _, err := range []error{
		syscall.ENETUNREACH, syscall.EBADF, syscall.ECONNREFUSED, nil,
	} {
		if scanner.TransientSendError(err) {
			t.Errorf("%v should not be transient", err)
		}
	}
}

type wrapErr struct{ err error }

func (w wrapErr) Error() string { return "send: " + w.err.Error() }
func (w wrapErr) Unwrap() error { return w.err }
