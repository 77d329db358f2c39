package core

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/value"
	"github.com/ddgms/ddgms/internal/viz"
)

func waitReplicaConverged(t *testing.T, primary, replica *Platform) {
	t.Helper()
	durable, err := primary.Store().DurableLSN()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, ok := replica.Replication()
		if !ok {
			t.Fatal("replica lost replication role")
		}
		if !st.Cursor.Less(durable) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %s, primary durable %s", st.Cursor, durable)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// drain applies every pending CDC batch to a platform's warehouse.
func drain(t *testing.T, p *Platform) {
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

// snapshotBytes serialises a store's full state canonically.
func snapshotBytes(t *testing.T, p *Platform) []byte {
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

// figure renders the Fig 5-style crosstab an analyst would read.
func figure(t *testing.T, p *Platform) []byte {
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

// commitVisit re-books a random attendance with drifted glucose, the
// same churn the serve -simulate flag generates.
func commitVisit(t *testing.T, p *Platform, rng *rand.Rand) {
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

// TestReplicaFiguresMatchPrimary is the equivalence soak: across rounds
// of churn — including a full replica restart mid-soak — the replica's
// store bytes and rendered figures must be identical to the primary's
// at matched LSNs.
func TestReplicaFiguresMatchPrimary(t *testing.T) {
	dir := t.TempDir()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 60
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}

	primary := New(Config{DataDir: filepath.Join(dir, "primary")})
	t.Cleanup(func() { primary.Close() })
	if err := primary.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := primary.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	if err := primary.StartFollow(FollowConfig{
		Pipeline:  NewDiScRiPipeline(),
		Builder:   NewDiScRiBuilder(),
		CursorDir: filepath.Join(dir, "primary-cdc"),
		Setup:     FinishDiScRiSetup,
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.AttachPrimary(ReplicateListenConfig{
		Listener:       ln,
		HeartbeatEvery: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	startReplica := func() *Platform {
		r := New(Config{DataDir: filepath.Join(dir, "replica")})
		if err := r.OpenStore(raw.Schema()); err != nil {
			t.Fatal(err)
		}
		if err := r.AttachReplica(ReplicateFromConfig{
			PrimaryAddr: addr,
			ID:          "soak-reader",
			CursorDir:   filepath.Join(dir, "replcur"),
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-r.ReplicaReady():
		case <-time.After(15 * time.Second):
			t.Fatal("replica never synced")
		}
		if err := r.StartFollow(FollowConfig{
			Pipeline:  NewDiScRiPipeline(),
			Builder:   NewDiScRiBuilder(),
			CursorDir: filepath.Join(dir, "replica-cdc"),
			Setup:     FinishDiScRiSetup,
		}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	replica := startReplica()
	defer func() { replica.Close() }()

	rng := rand.New(rand.NewSource(7))
	rounds := 4
	for round := 0; round < rounds; round++ {
		for i := 0; i < 15; i++ {
			commitVisit(t, primary, rng)
		}
		if round == 2 {
			// Kill the replica platform entirely and reopen over the same
			// directories: the follower must resume from its durable cursor
			// and reconverge without a resync wiping the warehouse state.
			if err := replica.Close(); err != nil {
				t.Fatalf("closing replica: %v", err)
			}
			replica = startReplica()
		}
		waitReplicaConverged(t, primary, replica)
		drain(t, primary)
		drain(t, replica)

		if pb, rb := snapshotBytes(t, primary), snapshotBytes(t, replica); !bytes.Equal(pb, rb) {
			t.Fatalf("round %d: store snapshots diverged (%d vs %d bytes)", round, len(pb), len(rb))
		}
		pf, rf := figure(t, primary), figure(t, replica)
		if !bytes.Equal(pf, rf) {
			t.Fatalf("round %d: figures diverged:\nprimary:\n%s\nreplica:\n%s", round, pf, rf)
		}
		if round == 0 && len(pf) == 0 {
			t.Fatal("figure rendered empty")
		}
	}

	// The soak must have exercised real replication, not an idle stream.
	st, ok := primary.Replication()
	if !ok || len(st.Followers) == 0 {
		t.Fatalf("primary lost its follower roster: %+v", st)
	}
}
