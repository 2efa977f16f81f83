package scanner

import (
	"context"
	"errors"
	"io"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snmpv3fp/internal/vclock"
)

// failTransport fails every Send and tracks Close, for the goroutine-leak
// regression: the engine must close the transport (unblocking capture) on
// the send-error exit path too.
type failTransport struct {
	err       error
	closed    chan struct{}
	closeOnce sync.Once
	wasClosed atomic.Bool
}

func (f *failTransport) Send(dst netip.Addr, payload []byte) error { return f.err }

func (f *failTransport) Recv() (netip.Addr, []byte, time.Time, error) {
	<-f.closed
	return netip.Addr{}, nil, time.Time{}, io.EOF
}

func (f *failTransport) Close() error {
	f.wasClosed.Store(true)
	f.closeOnce.Do(func() { close(f.closed) })
	return nil
}

func TestScanSendFailureClosesTransport(t *testing.T) {
	before := runtime.NumGoroutine()
	sentinel := errors.New("interface down")
	for _, workers := range []int{1, 4} {
		tr := &failTransport{err: sentinel, closed: make(chan struct{})}
		targets, err := NewPrefixSpace([]netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")}, 1)
		if err != nil {
			t.Fatal(err)
		}
		clock := vclock.NewVirtual(time.Unix(0, 0))
		_, err = ScanContext(context.Background(), tr, targets, Config{Rate: 1000, Clock: clock, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: send failure not reported", workers)
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: error %v does not wrap the send error", workers, err)
		}
		if !tr.wasClosed.Load() {
			t.Errorf("workers=%d: transport left open after send failure", workers)
		}
	}
	// The capture goroutine must have exited on every path above. Allow the
	// runtime a moment to retire finished goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across failed scans: %d before, %d after", before, after)
	}
}

// countTransport is a concurrency-safe transport with scripted responders:
// answerOn maps an address to the attempt number (1-based) on which it
// responds. It implements ResponseCounter so retry snapshots are exact.
type countTransport struct {
	clock    vclock.Clock
	answerOn func(netip.Addr) int

	mu       sync.Mutex
	attempts map[netip.Addr]int
	ch       chan Response
	closed   bool
	queued   atomic.Uint64
	sent     atomic.Uint64
}

func newCountTransport(clock vclock.Clock, answerOn func(netip.Addr) int) *countTransport {
	return &countTransport{
		clock:    clock,
		answerOn: answerOn,
		attempts: map[netip.Addr]int{},
		ch:       make(chan Response, 1<<16),
	}
}

func (c *countTransport) Send(dst netip.Addr, payload []byte) error {
	c.sent.Add(1)
	c.mu.Lock()
	c.attempts[dst]++
	n := c.attempts[dst]
	c.mu.Unlock()
	if c.answerOn != nil && n == c.answerOn(dst) {
		c.queued.Add(1)
		c.ch <- Response{Src: dst, Payload: []byte{0x30, 0x00}, At: c.clock.Now()}
	}
	return nil
}

func (c *countTransport) Recv() (netip.Addr, []byte, time.Time, error) {
	r, ok := <-c.ch
	if !ok {
		return netip.Addr{}, nil, time.Time{}, io.EOF
	}
	return r.Src, r.Payload, r.At, nil
}

func (c *countTransport) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
	return nil
}

func (c *countTransport) QueuedResponses() uint64 { return c.queued.Load() }

func (c *countTransport) attemptsFor(a netip.Addr) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts[a]
}

func TestScanRetryReprobesOnlyNonResponders(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	// Even last byte: answers the first probe. Odd: answers only the retry.
	tr := newCountTransport(clock, func(a netip.Addr) int {
		if a.As4()[3]%2 == 0 {
			return 1
		}
		return 2
	})
	targets, err := NewPrefixSpace([]netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScanContext(context.Background(), tr, targets, Config{
		Rate: 100000, Batch: 32, Timeout: time.Second, Clock: clock, Seed: 9,
		Workers: 2, Retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 256+128 {
		t.Errorf("Sent = %d, want 384 (256 first pass + 128 retries)", res.Sent)
	}
	if res.Retried != 128 {
		t.Errorf("Retried = %d, want 128", res.Retried)
	}
	if len(res.Responses) != 256 {
		t.Errorf("responses = %d, want every target after the retry pass", len(res.Responses))
	}
	// Responders from pass one must not have been probed again.
	for i := 0; i < 256; i++ {
		a := netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
		want := 1
		if i%2 == 1 {
			want = 2
		}
		if got := tr.attemptsFor(a); got != want {
			t.Fatalf("%v probed %d times, want %d", a, got, want)
		}
	}
}

func TestScanCoordinatedPacing(t *testing.T) {
	// Four workers pacing one virtual timeline must advance it like four
	// parallel machines: ~n/Rate + Timeout, not four times that.
	clock := vclock.NewVirtual(time.Unix(0, 0))
	tr := newCountTransport(clock, nil)
	targets, err := NewPrefixSpace([]netip.Prefix{netip.MustParsePrefix("10.0.0.0/22")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScanContext(context.Background(), tr, targets, Config{
		Rate: 1000, Batch: 64, Timeout: time.Second, Clock: clock, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 1024 {
		t.Fatalf("Sent = %d", res.Sent)
	}
	// 1024 targets at 1 kpps aggregate ≈ 1.024 s of sending + 1 s drain.
	elapsed := res.Finished.Sub(res.Started)
	if elapsed < 2*time.Second || elapsed > 3*time.Second {
		t.Errorf("virtual elapsed = %v, want ~2s (uncoordinated workers would give ~5s)", elapsed)
	}
}

// overshootClock models a host whose sleeps systematically return late — the
// real-world behavior of timer slack and scheduler latency. Every Sleep
// overshoots its requested duration by a fixed amount.
type overshootClock struct {
	mu        sync.Mutex
	now       time.Time
	overshoot time.Duration
}

func (c *overshootClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *overshootClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d + c.overshoot)
	c.mu.Unlock()
}

// TestScanPacingCarriesOvershoot pins the deadline-pacing bugfix: sleep
// overshoot must be carried into the next batch's deadline, not accumulated
// into rate sag. On a clock that overshoots every sleep by 5ms, the realized
// send window must stay within one overshoot of the ideal n/Rate window; the
// old sleep-a-duration pacer accumulated one overshoot per batch (+80ms over
// this pass, ~8% under the target rate).
func TestScanPacingCarriesOvershoot(t *testing.T) {
	const overshoot = 5 * time.Millisecond
	clock := &overshootClock{now: time.Unix(0, 0), overshoot: overshoot}
	tr := newCountTransport(clock, nil)
	targets, err := NewPrefixSpace([]netip.Prefix{netip.MustParsePrefix("10.0.0.0/22")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScanContext(context.Background(), tr, targets, Config{
		Rate: 1000, Batch: 64, Timeout: time.Second, Clock: clock, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 1024 {
		t.Fatalf("Sent = %d", res.Sent)
	}
	// Finished = send window + drain Timeout (whose own sleep overshoots once).
	window := res.Finished.Sub(res.Started) - time.Second - overshoot
	ideal := 1024 * time.Second / 1000
	if window < ideal {
		t.Errorf("send window %v shorter than ideal %v: pacing under-slept", window, ideal)
	}
	if lag := window - ideal; lag > 2*overshoot {
		t.Errorf("send window %v exceeds ideal %v by %v: overshoot accumulated into rate sag (old pacer: ~%v)",
			window, ideal, lag, 16*overshoot)
	}
}

func TestRateClampKeepsPacing(t *testing.T) {
	// Rate beyond 1e9 pps used to truncate the per-batch interval to zero,
	// silently disabling pacing. fill() now clamps it.
	c := Config{Rate: 2_000_000_000}
	c.fill()
	if c.Rate != maxRate {
		t.Fatalf("Rate clamped to %d, want %d", c.Rate, maxRate)
	}
	e := &engine{cfg: c, workers: 1}
	if d := e.paceDuration(c.Batch); d <= 0 {
		t.Errorf("pace interval %v at the clamped max rate; pacing disabled", d)
	}
	if d := e.slotOffset(1); d <= 0 {
		t.Errorf("slot offset %v at the clamped max rate", d)
	}
}

func TestConfigClamps(t *testing.T) {
	c := Config{Workers: -3, Retries: -1, Batch: 1 << 30}
	c.fill()
	if c.Workers != 1 {
		t.Errorf("Workers = %d, want 1", c.Workers)
	}
	if c.Retries != 0 {
		t.Errorf("Retries = %d, want 0", c.Retries)
	}
	if c.Batch != maxBatch {
		t.Errorf("Batch = %d, want %d", c.Batch, maxBatch)
	}
	c = Config{Workers: 1 << 20}
	c.fill()
	if c.Workers != maxWorkers {
		t.Errorf("Workers = %d, want %d", c.Workers, maxWorkers)
	}
}

func TestScanProgressSnapshots(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	tr := newCountTransport(clock, func(netip.Addr) int { return 1 })
	targets, err := NewPrefixSpace([]netip.Prefix{netip.MustParsePrefix("10.1.0.0/24")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var snaps []Snapshot
	res, err := ScanContext(context.Background(), tr, targets, Config{
		Rate: 100000, Clock: clock, Workers: 2, ProgressEvery: 64,
		Progress: func(s Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	last := snaps[len(snaps)-1]
	if !last.Done {
		t.Error("final snapshot not marked Done")
	}
	if last.Sent != res.Sent || last.Sent != 256 {
		t.Errorf("final snapshot Sent = %d, want %d", last.Sent, res.Sent)
	}
	if last.Received != uint64(len(res.Responses)) {
		t.Errorf("final snapshot Received = %d, want %d", last.Received, len(res.Responses))
	}
	if len(last.Shards) != 2 {
		t.Errorf("shard progress entries = %d, want 2", len(last.Shards))
	}
	var perShard uint64
	for _, sp := range last.Shards {
		perShard += sp.Sent
		if !sp.Done {
			t.Errorf("shard %d not marked done in final snapshot", sp.Shard)
		}
	}
	if perShard != last.Sent {
		t.Errorf("shard sent total %d != campaign sent %d", perShard, last.Sent)
	}
}
