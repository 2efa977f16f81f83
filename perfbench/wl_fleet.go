package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/serve"
	"snmpv3fp/internal/store"
	"snmpv3fp/internal/vantage"
)

const (
	// fleetCampaigns is how many sharded campaigns one fleet pass runs,
	// on the snmpfpd cadence (day 15 + 6·i).
	fleetCampaigns = 6
	// fleetShards is each campaign's shard count: more shards than nodes,
	// so every node takes several leases.
	fleetShards = 4
	// fleetNodes is the number of vantage nodes, one per processor here.
	fleetNodes = 2
	// fleetSampleIPs is how many addresses the replica check compares.
	fleetSampleIPs = 200
)

// fleet runs sharded campaigns on in-process vantage nodes over loopback
// TCP, lets the coordinator ingest each merged campaign into a durable
// primary, and ships the primary's segments to one read replica.
type fleet struct {
	seed  int64
	specs []vantage.CampaignSpec
	// refs holds each campaign's single-process scan, encoded.
	refs [][]byte

	// Components of the current pass, replaced by reset.
	cancel          context.CancelFunc
	wg              sync.WaitGroup
	replLn          net.Listener
	pdir, rdir      string
	reg, rreg       *obs.Registry
	st              *store.Store
	replica         *store.Replica
	primSrv, repSrv *serve.Server
	syncErr         chan error
}

func setupFleet(b *bench, p *pass) (pipeline, error) {
	b.scale = fmt.Sprintf("netsim.TinyConfig(%d), regenerated per lease by vantage.SimRunner", worldSeed)
	f := &fleet{seed: b.seed}
	for i := 0; i < fleetCampaigns; i++ {
		f.specs = append(f.specs, vantage.CampaignSpec{
			CampaignSeed: campaignSeed(b.seed, i),
			SimSeed:      worldSeed,
			ScanDay:      15 + 6*i,
			ScanEpochs:   i + 1,
			Rate:         5000,
			Batch:        256,
			Workers:      1,
			TotalShards:  fleetShards,
		})
	}
	// The single-process scan of every campaign is the oracle each merged
	// campaign is checked against.
	for _, spec := range f.specs {
		spec.TotalShards = 1
		res, err := vantage.SimRunner{}.RunLease(b.ctx, spec, vantage.Lease{Shard: 0})
		if err != nil {
			return nil, err
		}
		f.refs = append(f.refs, encodeResult(res))
	}
	var err error
	p.timed("store.open", func() { err = f.open(b) })
	return f, err
}

// open creates the durable primary, the replica, and the replication
// stream between them.
func (f *fleet) open(b *bench) error {
	ctx, cancel := context.WithCancel(b.ctx)
	f.cancel = cancel
	var err error
	if f.pdir, err = b.scratchDir("primary"); err != nil {
		return err
	}
	if f.rdir, err = b.scratchDir("replica"); err != nil {
		return err
	}
	f.reg, f.rreg = obs.NewRegistry(), obs.NewRegistry()
	if f.st, err = store.Open(store.Options{Dir: f.pdir, Obs: f.reg}); err != nil {
		return err
	}
	if f.replica, err = store.OpenReplica(store.ReplicaOptions{Dir: f.rdir, Obs: f.rreg}); err != nil {
		return err
	}
	if f.replLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	st, ln := f.st, f.replLn
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = st.ServeReplication(ln)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	f.syncErr = make(chan error, 1)
	replica, syncErr := f.replica, f.syncErr
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		syncErr <- replica.Sync(ctx, conn)
	}()
	f.primSrv = serve.New(f.st, serve.WithObs(f.reg))
	f.repSrv = serve.New(f.replica, serve.WithObs(f.rreg))
	return nil
}

func (f *fleet) reset(b *bench) error {
	if err := f.close(); err != nil {
		return err
	}
	return f.open(b)
}

// close stops the replication stream, waits for its goroutines, then
// closes both stores and deletes their directories. It tolerates a
// partly opened pass.
func (f *fleet) close() error {
	if f.cancel == nil {
		return nil
	}
	f.cancel()
	var errs []error
	if f.replLn != nil {
		f.replLn.Close()
	}
	f.wg.Wait()
	if f.replica != nil {
		errs = append(errs, f.replica.Close())
	}
	if f.st != nil {
		errs = append(errs, f.st.Close())
	}
	for _, dir := range []string{f.pdir, f.rdir} {
		if dir != "" {
			errs = append(errs, os.RemoveAll(dir))
		}
	}
	f.cancel, f.replLn, f.replica, f.st, f.pdir, f.rdir = nil, nil, nil, nil, "", ""
	return errors.Join(errs...)
}

// leaseTimer runs leases through vantage.SimRunner inside vantage.lease
// spans parented by the node's span.
type leaseTimer struct {
	node spanRef
}

func (r leaseTimer) RunLease(ctx context.Context, spec vantage.CampaignSpec, l vantage.Lease) (*scanner.Result, error) {
	sp := r.node.childLabel("vantage.lease", fmt.Sprint(l.Shard))
	defer sp.end()
	return vantage.SimRunner{}.RunLease(ctx, spec, l)
}

func (f *fleet) pass(p *pass) error {
	b := p.bench
	var outs []*vantage.Outcome
	var ackAt time.Time
	start := time.Now()
	for _, spec := range f.specs {
		out, err := f.campaign(p, spec)
		if err != nil {
			return err
		}
		ackAt = time.Now()
		outs = append(outs, out)
	}
	// The last campaign sits in the primary's memtable until a flush
	// publishes it to replicas.
	var err error
	d := p.timed("store.flush", func() { err = f.st.Flush() })
	if err != nil {
		return err
	}
	p.set("store.flush_s", d.Seconds())
	want := f.st.Snapshot().Stats().Ingested
	d = p.timed("replica.sync", func() { err = f.awaitReplica(want) })
	if err != nil {
		return err
	}
	p.finish(start)
	p.set("replica.sync_s", d.Seconds())
	p.figures["replica_lag_s"] = time.Since(ackAt).Seconds()

	reg := f.reg
	p.set("vantage.leases", reg.Value("snmpfp_coord_leases_total"))
	p.set("vantage.stale_partials", reg.Value("snmpfp_coord_stale_partials_total"))
	p.set("vantage.merge_lag_s", histSum(reg, "snmpfp_coord_merge_lag_seconds"))
	p.set("store.repl_commits", reg.Value("snmpfp_store_repl_commits_total"))
	// The coordinator calls Ingest itself; the store's own span times it.
	p.set("store.ingest_s", spanSeconds(reg, "store.ingest"))
	storeFigures(p, reg)

	// Re-leased units mean a node was presumed dead: a failed operation.
	releases := int(reg.Value("snmpfp_coord_releases_total"))
	b.ops(int(reg.Value("snmpfp_coord_leases_total")), releases)
	return f.checkFleet(p, outs)
}

// campaign runs one sharded campaign: a coordinator and fleetNodes nodes
// over loopback TCP, wired as snmpcoord and snmpscan -vantage wire them.
func (f *fleet) campaign(p *pass, spec vantage.CampaignSpec) (*vantage.Outcome, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(p.bench.ctx, 2*time.Minute)
	defer cancel()
	cs := p.root.child("vantage.coordinator")
	t0 := time.Now()
	coord := vantage.NewCoordinator(vantage.CoordConfig{Spec: spec, Obs: f.reg, Store: f.st})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = coord.Serve(ln)
	}()
	nodeErr := make([]error, fleetNodes)
	for i := 0; i < fleetNodes; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			cancel()
			ln.Close()
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ns := p.root.childLabel("vantage.node", fmt.Sprint(i))
			nodeErr[i] = vantage.RunNode(ctx, conn, vantage.NodeConfig{Name: fmt.Sprintf("node%d", i), Runner: leaseTimer{node: ns}})
			ns.end()
		}(i)
	}
	out, err := coord.Wait(ctx)
	cs.end()
	p.add("vantage.coord_wait_s", time.Since(t0).Seconds())
	if err != nil {
		cancel() // nodes may still wait for a campaign that will not finish
	}
	ln.Close()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if err := errors.Join(nodeErr...); err != nil {
		return nil, fmt.Errorf("vantage node: %w", err)
	}
	return out, nil
}

// awaitReplica waits until the replica's view holds all want samples with
// none left in the primary's memtable: the state the final flush shipped.
func (f *fleet) awaitReplica(want uint64) error {
	deadline := time.Now().Add(time.Minute)
	for {
		if s := f.replica.Snapshot().Stats(); s.Ingested == want && s.MemSamples == 0 {
			return nil
		}
		select {
		case err := <-f.syncErr:
			return fmt.Errorf("replica stream ended: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica never caught up with %d samples", want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkFleet holds each merged campaign to its single-process scan, the
// replica's answers to the primary's, and the counts to the registry.
func (f *fleet) checkFleet(p *pass, outs []*vantage.Outcome) error {
	b := p.bench
	var acked uint64
	for i, out := range outs {
		b.check(bytes.Equal(encodeResult(out.Merged), f.refs[i]), "campaign %d: merged result differs from the single-process scan", i+1)
		acked += uint64(len(out.Campaign.ByIP))
	}
	b.check(float64(acked) == f.reg.Value("snmpfp_store_ingested_total"),
		"samples acknowledged %d, registry says %v", acked, f.reg.Value("snmpfp_store_ingested_total"))

	ips := addrSample(outs[len(outs)-1].Campaign.SortedIPs(), fleetSampleIPs)
	differ := 0
	for _, ip := range ips {
		pc, pb := get(f.primSrv, "/v1/ip/"+ip.String())
		rc, rb := get(f.repSrv, "/v1/ip/"+ip.String())
		if pc != 200 || rc != pc || !bytes.Equal(pb, rb) {
			differ++
		}
	}
	b.check(differ == 0, "replica /v1/ip differs from the primary on %d of %d addresses", differ, len(ips))
	n := float64(len(ips))
	b.check(f.reg.Value("snmpfp_http_requests_total", obs.L("endpoint", "ip")) == n &&
		f.rreg.Value("snmpfp_http_requests_total", obs.L("endpoint", "ip")) == n,
		"requests issued %v to each server, registries say %v and %v", n,
		f.reg.Value("snmpfp_http_requests_total", obs.L("endpoint", "ip")),
		f.rreg.Value("snmpfp_http_requests_total", obs.L("endpoint", "ip")))
	return nil
}

// encodeResult flattens a scan result through the vantage wire encoding:
// two results are byte-identical when these bytes are.
func encodeResult(res *scanner.Result) []byte {
	out := vantage.AppendShardDone(nil, vantage.ShardDone{
		Sent: res.Sent, Retried: res.Retried, OffPath: res.OffPath,
		ProbeMsgID: res.ProbeMsgID, Started: res.Started, Finished: res.Finished,
	})
	return vantage.AppendPartial(out, vantage.Partial{Responses: res.Responses})
}
