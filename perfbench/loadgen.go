package main

import (
	"encoding/hex"
	"math/rand"
	"net/netip"
	"sync"
	"time"
)

// queryKind is one class of request in the ingest_query mix.
type queryKind int

const (
	qHit     queryKind = iota // GET /v1/ip of an ingested address
	qMiss                     // GET /v1/ip of a never-seen address (bloom path)
	qDevice                   // GET /v1/device of an ingested engine ID
	qReboots                  // GET /v1/reboots of an ingested address
	qVendors                  // GET /v1/vendors
	numKinds
)

// queryMix is the share of each kind in percent, in queryKind order.
var queryMix = [numKinds]int{60, 20, 10, 5, 5}

// query is one pre-generated request and what a correct answer looks like.
type query struct {
	kind queryKind
	path string
	// want is the prefix a correct 200 body starts with; misses want 404.
	want string
}

// hotKey is one address the hit, device and reboots queries may name.
type hotKey struct {
	ip       netip.Addr
	engineID []byte
}

// zipfExponent shapes the popularity of hot keys. The value is an
// assumption, not taken from measured traffic. With it about a third of a
// pass's hits repeat an address; README.md records the measured shape and
// cache behaviour.
const zipfExponent = 1.1

// genQueries draws n requests from the mix. Popularity follows a Zipf law
// over keys in the order given (callers shuffle it by seed first); miss
// addresses are uniform IPv4 addresses for which seen reports false. The
// same seed and inputs always give the same sequence.
func genQueries(seed int64, n int, keys []hotKey, seen func(netip.Addr) bool) []query {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, zipfExponent, 1, uint64(len(keys)-1))
	out := make([]query, 0, n)
	for len(out) < n {
		var q query
		switch k := pickKind(r.Intn(100)); k {
		case qHit:
			ip := keys[zipf.Uint64()].ip.String()
			q = query{kind: k, path: "/v1/ip/" + ip, want: `{"ip":"` + ip + `"`}
		case qMiss:
			ip := missAddr(r, seen).String()
			q = query{kind: k, path: "/v1/ip/" + ip}
		case qDevice:
			id := hex.EncodeToString(keys[zipf.Uint64()].engineID)
			q = query{kind: k, path: "/v1/device/" + id, want: `{"engine_id":"` + id + `"`}
		case qReboots:
			ip := keys[zipf.Uint64()].ip.String()
			q = query{kind: k, path: "/v1/reboots/" + ip, want: `{"ip":"` + ip + `"`}
		case qVendors:
			q = query{kind: k, path: "/v1/vendors", want: `{"campaigns":`}
		}
		out = append(out, q)
	}
	return out
}

// pickKind maps a uniform draw in [0,100) onto the mix.
func pickKind(x int) queryKind {
	for k := queryKind(0); k < numKinds; k++ {
		if x < queryMix[k] {
			return k
		}
		x -= queryMix[k]
	}
	return numKinds - 1
}

// missAddr draws uniform IPv4 addresses until one was never seen.
func missAddr(r *rand.Rand, seen func(netip.Addr) bool) netip.Addr {
	for {
		u := r.Uint32()
		a := netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
		if !seen(a) {
			return a
		}
	}
}

// loopResult is what an open-loop run observed.
type loopResult struct {
	// lat is each completed request's latency measured from when it was
	// due, so a stall also charges every request queued behind it.
	lat []time.Duration
	// lag is how late the generator released each request.
	lag []time.Duration
	// failed counts requests whose do call reported an error, and errs
	// keeps the first few of those errors.
	failed int
	errs   []error
}

// maxLoggedErrs is how many request errors a loop keeps for diagnosis.
const maxLoggedErrs = 5

// runOpenLoop releases request i at start+i·interval whether or not
// earlier requests have completed, until stop is closed or n requests are
// out, and sends them in order from one worker (one client connection).
// The queue holds all n, so the generator never waits for the worker.
// Requests released before stop are all sent before it returns.
func runOpenLoop(start time.Time, interval time.Duration, n int, stop <-chan struct{}, do func(i int) error) loopResult {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n)
	var res loopResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := range jobs {
			err := do(j.i)
			res.lat = append(res.lat, time.Since(j.due))
			if err != nil {
				res.failed++
				if len(res.errs) < maxLoggedErrs {
					res.errs = append(res.errs, err)
				}
			}
		}
	}()
	var lag []time.Duration
	timer := time.NewTimer(0)
	<-timer.C
release:
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		timer.Reset(max(time.Until(due), 0))
		select {
		case <-stop:
			timer.Stop()
			break release
		case <-timer.C:
		}
		lag = append(lag, time.Since(due))
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	res.lag = lag
	return res
}
