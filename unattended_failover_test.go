package ddgms_test

// The unattended-failover soak: a three-node cluster behind the
// auto-failover routing front loses its primary with NO operator in the
// loop. The router's failure detector confirms the death, the
// quorum-gated elector promotes the best follower, the stranded
// follower re-homes itself, and when the old primary returns it
// discovers the successor and rejoins as a follower — every recovery
// machine-initiated. Throughout, the figures an analyst renders are
// byte-identical to a control platform that never failed, the election
// journal records exactly one promotion, and teardown proves no
// recovery round leaked a goroutine.
//
// scripts/failover_soak.sh -auto runs this under -race across multiple
// seeds (DDGMS_SOAK_SEED varies the churn stream).

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/router"
	"github.com/ddgms/ddgms/internal/server"
	"github.com/ddgms/ddgms/internal/value"
	"github.com/ddgms/ddgms/internal/viz"
)

func soakSeed() int64 {
	if s := os.Getenv("DDGMS_SOAK_SEED"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

// churnVisit re-books a random attendance with drifted glucose — the
// same deterministic churn the core-level soaks use, applied here
// directly to a platform's store so the control platform can replay the
// identical sequence from the identical seed.
func churnVisit(t *testing.T, p *core.Platform, rng *rand.Rand) {
	t.Helper()
	st := p.Store()
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	row := snap.Row(rng.Intn(snap.Len()))
	schema := st.Schema()
	if j, ok := schema.Lookup("VisitDate"); ok && !row[j].IsNA() {
		row[j] = value.Time(row[j].Time().AddDate(0, 3, rng.Intn(29)-14))
	}
	if j, ok := schema.Lookup("FBG"); ok && !row[j].IsNA() {
		row[j] = value.Float(row[j].Float() + rng.NormFloat64()*0.4)
	}
	tx := st.Begin()
	if _, err := tx.Insert(oltp.Row(row)); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func soakFigure(t *testing.T, p *core.Platform) []byte {
	t.Helper()
	cs, err := p.QueryMDXCtx(context.Background(), `SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS,
		{[MedicalCondition].[DiabetesStatus].MEMBERS} ON ROWS FROM [MedicalMeasures]`)
	if err != nil {
		t.Fatalf("QueryMDXCtx: %v", err)
	}
	var buf bytes.Buffer
	if err := viz.CrossTab(&buf, "attendances", cs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func soakSnapshot(t *testing.T, p *core.Platform) []byte {
	t.Helper()
	tbl, err := p.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func drainRefresh(t *testing.T, p *core.Platform) {
	t.Helper()
	for {
		n, err := p.Refresh()
		if err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		if n == 0 {
			return
		}
	}
}

func waitStoresEqual(t *testing.T, what string, a, b *core.Platform) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		ab, bb := soakSnapshot(t, a), soakSnapshot(t, b)
		if bytes.Equal(ab, bb) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: stores never converged (%d vs %d bytes)", what, len(ab), len(bb))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func waitFollowerOf(t *testing.T, name string, p *core.Platform, primaryAddr string) {
	t.Helper()
	deadline := time.Now().Add(25 * time.Second)
	for {
		st, ok := p.Replication()
		if ok && st.Role == "follower" && st.Primary == primaryAddr && st.Connected {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never re-homed to %s: %+v ok=%v", name, primaryAddr, st, ok)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestUnattendedFailoverConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node soak")
	}
	baseGoroutines := runtime.NumGoroutine()
	seed := soakSeed()
	t.Logf("soak seed %d", seed)

	dir := t.TempDir()
	raw := benchCohort(t, 40)

	// The never-failed control replays the identical churn stream.
	control := core.New(core.Config{DataDir: filepath.Join(dir, "control")})
	defer control.Close()
	if err := control.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := control.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	startFollowing(t, control, filepath.Join(dir, "control-cdc"))

	// Node A: initial primary with a restartable HTTP face (it must come
	// back on the same address the router knows).
	pa := core.New(core.Config{DataDir: filepath.Join(dir, "a")})
	defer pa.Close()
	if err := pa.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := pa.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	startFollowing(t, pa, filepath.Join(dir, "a-cdc"))
	lnRA := listen(t)
	if err := pa.AttachPrimary(core.ReplicateListenConfig{
		Listener:       lnRA,
		EpochDir:       filepath.Join(dir, "a-repl"),
		HeartbeatEvery: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	aHandler := server.New(pa)
	lnHA := listen(t)
	aAddr := lnHA.Addr().String()
	aSrv := &http.Server{Handler: aHandler}
	go aSrv.Serve(lnHA)
	defer aSrv.Close()

	// Nodes B and C: replicas bootstrapped from A.
	mkReplica := func(name string) *core.Platform {
		p := core.New(core.Config{DataDir: filepath.Join(dir, name)})
		if err := p.OpenStore(raw.Schema()); err != nil {
			t.Fatal(err)
		}
		if err := p.AttachReplica(core.ReplicateFromConfig{
			PrimaryAddr: lnRA.Addr().String(),
			ID:          name,
			CursorDir:   filepath.Join(dir, name+"-cursor"),
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-p.ReplicaReady():
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never synced", name)
		}
		startFollowing(t, p, filepath.Join(dir, name+"-cdc"))
		p.SetPromoteListen("127.0.0.1:0")
		return p
	}
	pb := mkReplica("b")
	defer pb.Close()
	bSrv := httptest.NewServer(server.New(pb))
	defer bSrv.Close()
	pc := mkReplica("c")
	defer pc.Close()
	cSrv := httptest.NewServer(server.New(pc))
	defer cSrv.Close()

	// The auto-failover front.
	rt, err := router.New(router.Config{
		Backends:         []string{"http://" + aAddr, bSrv.URL, cSrv.URL},
		PollEvery:        30 * time.Millisecond,
		MaxStaleness:     5 * time.Second,
		AutoFailover:     true,
		ElectionDir:      filepath.Join(dir, "election"),
		FailureThreshold: 3,
		SuspicionWindow:  150 * time.Millisecond,
		PromoteTimeout:   3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	// Self-heal on every node, all discovering through the front (whose
	// /replication proxies to whatever primary the router has resolved).
	healClient := &http.Client{}
	defer healClient.CloseIdleConnections()
	selfHeal := func(p *core.Platform, id, cursorDir string) {
		if err := p.EnableSelfHeal(core.SelfHealConfig{
			Peers:        []string{front.URL},
			ID:           id,
			CursorDir:    cursorDir,
			WatchEvery:   40 * time.Millisecond,
			RehomeAfter:  250 * time.Millisecond,
			BackoffMin:   25 * time.Millisecond,
			ProbeTimeout: 500 * time.Millisecond,
			Client:       healClient,
		}); err != nil {
			t.Fatal(err)
		}
	}
	selfHeal(pa, "a", filepath.Join(dir, "a-repl"))
	selfHeal(pb, "b", filepath.Join(dir, "b-cursor"))
	selfHeal(pc, "c", filepath.Join(dir, "c-cursor"))

	// Round 1: steady state. Cluster figures match the control exactly.
	rngCluster := rand.New(rand.NewSource(seed))
	rngControl := rand.New(rand.NewSource(seed))
	for i := 0; i < 12; i++ {
		churnVisit(t, pa, rngCluster)
		churnVisit(t, control, rngControl)
	}
	waitStoresEqual(t, "pre-kill b", pa, pb)
	waitStoresEqual(t, "pre-kill c", pa, pc)
	drainRefresh(t, pa)
	drainRefresh(t, control)
	controlFig := soakFigure(t, control)
	if fig := soakFigure(t, pa); !bytes.Equal(fig, controlFig) {
		t.Fatalf("pre-kill figures diverged:\ncluster:\n%s\ncontrol:\n%s", fig, controlFig)
	}

	// A finding through the front lands in the KB and replicates.
	finding := func(statement string) []byte {
		b, _ := json.Marshal(map[string]string{
			"topic": "soak", "statement": statement, "source": "unattended-soak",
		})
		return b
	}
	pollThroughFront(t, front.URL, "/findings", finding("pre-kill baseline"), time.Now())

	// The primary dies: HTTP face and replication listener, at once.
	// Nobody will touch the cluster from here until the assertions.
	aSrv.Close()
	pa.StopReplication()
	killedAt := time.Now()

	// Unattended time-to-writable and time-to-first-routed-read.
	ttw := pollThroughFront(t, front.URL, "/findings", finding("post-kill probe"), killedAt)
	queryBody, _ := json.Marshal(map[string]string{
		"mdx": "SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS FROM [MedicalMeasures]",
	})
	ttfr := pollThroughFront(t, front.URL, "/query", queryBody, killedAt)
	t.Logf("unattended ttw=%s ttfr=%s", ttw, ttfr)

	// Exactly one election, epoch advanced once.
	cl := rt.Cluster()
	if cl.Elections != 1 {
		t.Fatalf("elections = %d, want exactly 1 (double promotion?): %+v", cl.Elections, cl)
	}
	if cl.Epoch != 2 || cl.Primary == "" {
		t.Fatalf("cluster after election: %+v, want epoch 2 with a primary", cl)
	}
	var winner, survivor *core.Platform
	var winnerName, survivorName string
	switch cl.Primary {
	case bSrv.URL:
		winner, survivor, winnerName, survivorName = pb, pc, "b", "c"
	case cSrv.URL:
		winner, survivor, winnerName, survivorName = pc, pb, "c", "b"
	default:
		t.Fatalf("elected primary %q is neither follower", cl.Primary)
	}
	wst, ok := winner.Replication()
	if !ok || wst.Role != "primary" || wst.Epoch != 2 || wst.Fenced {
		t.Fatalf("winner %s status: %+v ok=%v", winnerName, wst, ok)
	}

	// The stranded follower re-homes itself onto the new primary.
	waitFollowerOf(t, "survivor "+survivorName, survivor, wst.Addr)

	// The old primary returns on its original address and data, resuming
	// its durable epoch-1 claim — then discovers the successor and
	// rejoins as a follower with no one telling it to.
	lnHA2, err := net.Listen("tcp", aAddr)
	if err != nil {
		t.Fatalf("rebinding old primary's address: %v", err)
	}
	aSrv = &http.Server{Handler: aHandler}
	go aSrv.Serve(lnHA2)
	defer aSrv.Close()
	lnRA2 := listen(t)
	if err := pa.AttachPrimary(core.ReplicateListenConfig{
		Listener:       lnRA2,
		EpochDir:       filepath.Join(dir, "a-repl"),
		HeartbeatEvery: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	waitFollowerOf(t, "returned ex-primary a", pa, wst.Addr)

	// Round 2: churn on the new primary; the cluster must stay in
	// lockstep with the never-failed control.
	for i := 0; i < 12; i++ {
		churnVisit(t, winner, rngCluster)
		churnVisit(t, control, rngControl)
	}
	drainRefresh(t, winner)
	drainRefresh(t, control)
	controlFig = soakFigure(t, control)
	if fig := soakFigure(t, winner); !bytes.Equal(fig, controlFig) {
		t.Fatalf("post-failover figures diverged:\ncluster:\n%s\ncontrol:\n%s", fig, controlFig)
	}
	waitStoresEqual(t, "post-failover survivor", winner, survivor)
	waitStoresEqual(t, "post-failover rejoined a", winner, pa)
	drainRefresh(t, survivor)
	drainRefresh(t, pa)
	if fig := soakFigure(t, survivor); !bytes.Equal(fig, controlFig) {
		t.Fatalf("survivor %s figure diverged from control:\ngot:\n%s\nwant:\n%s", survivorName, fig, controlFig)
	}
	if fig := soakFigure(t, pa); !bytes.Equal(fig, controlFig) {
		t.Fatalf("rejoined a figure diverged from control:\ngot:\n%s\nwant:\n%s", fig, controlFig)
	}

	// The findings KB converged everywhere too (it rides the same WAL).
	waitFindingsEverywhere(t, []string{"http://" + aAddr, bSrv.URL, cSrv.URL},
		"pre-kill baseline", "post-kill probe")

	// Still exactly one election; the returned A is a healthy follower.
	cl = rt.Cluster()
	if cl.Elections != 1 || cl.Epoch != 2 {
		t.Fatalf("final cluster: elections=%d epoch=%d, want 1/2", cl.Elections, cl.Epoch)
	}

	// Teardown everything and prove the recovery rounds leaked nothing.
	front.Close()
	rt.Close()
	aSrv.Close()
	bSrv.Close()
	cSrv.Close()
	pa.Close()
	pb.Close()
	pc.Close()
	control.Close()
	healClient.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutinesSettle(t, baseGoroutines)
}

// waitFindingsEverywhere polls each node's own /findings endpoint until
// every statement is present locally — proof the KB writes replicated
// through the WAL to all survivors of the failover.
func waitFindingsEverywhere(t *testing.T, nodes []string, statements ...string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for _, base := range nodes {
		for {
			resp, err := http.Get(base + "/findings?q=soak")
			var body []byte
			if err == nil {
				body = readAll(resp)
			}
			missing := false
			for _, s := range statements {
				if !strings.Contains(string(body), s) {
					missing = true
				}
			}
			if err == nil && !missing {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s/findings never converged (err %v): %s", base, err, body)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
}

func readAll(resp *http.Response) []byte {
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

// waitGoroutinesSettle fails the test if, after full teardown, the
// goroutine count never returns near its pre-test baseline — a leaked
// rejoin loop, watchdog, or elector would hold it up.
func waitGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+8 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after recovery rounds: %d goroutines (baseline %d)\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
