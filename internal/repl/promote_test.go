package repl

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/faultnet"
	"github.com/ddgms/ddgms/internal/oltp"
)

// Promotion and fencing tests: the HA contract is that a promoted
// follower takes over writes at a strictly higher epoch with zero loss
// of committed transactions, surviving followers re-home onto it, and a
// returned stale primary is fenced the moment the higher epoch touches
// it — it can neither accept followers nor poison one.

// waitSameState polls until the two stores hold identical rows. Unlike
// waitConverged it does not compare WAL cursors: after a promotion the
// re-homed follower's cursor is from the old timeline and the new
// primary's WAL has its own segment layout, so LSNs from the two are
// not comparable — state equality is the cross-timeline ground truth.
func waitSameState(t *testing.T, want, got *oltp.Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if statesEqual(stateOf(t, want), stateOf(t, got)) {
			return
		}
		if time.Now().After(deadline) {
			sameState(t, want, got) // report the diff
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func statesEqual(a, b map[oltp.RowID]oltp.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for id, w := range a {
		g, ok := b[id]
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !w[i].Equal(g[i]) {
				return false
			}
		}
	}
	return true
}

func promote(t *testing.T, f *Follower) *Primary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	p, err := Promote(PromoteConfig{
		Follower:       f,
		Listener:       ln,
		MaxLagSegments: 1000,
		HeartbeatEvery: 25 * time.Millisecond,
		WriteTimeout:   time.Second,
		BatchTx:        8,
	})
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPromoteTakesOverWritesAndRehomesSurvivors(t *testing.T) {
	psA := openStore(t, t.TempDir(), smallSegs())
	commitN(t, psA, 20, 0)
	pA := startPrimary(t, psA, 1000)

	fsB := openStore(t, t.TempDir(), smallSegs())
	fB := startFollower(t, followerConfig(fsB, t.TempDir(), pA.Addr(), "b"))
	fsC := openStore(t, t.TempDir(), smallSegs())
	fC := startFollower(t, followerConfig(fsC, t.TempDir(), pA.Addr(), "c"))
	waitReady(t, fB)
	waitReady(t, fC)
	commitN(t, psA, 20, 100)
	waitConverged(t, psA, fB)
	waitConverged(t, psA, fC)

	pA.Close() // primary dies

	pB := promote(t, fB)
	if pB.Epoch() != 2 {
		t.Fatalf("promoted primary epoch = %d, want 2", pB.Epoch())
	}
	if st := pB.Status(); st.Role != "primary" || st.Epoch != 2 || st.Fenced {
		t.Fatalf("promoted status: %+v", st)
	}

	// The promoted store accepts local commits again.
	commitN(t, fsB, 15, 1000)

	// The surviving follower re-homes; its epoch-1 cursor is from the old
	// timeline, so the new primary forces a snapshot bootstrap.
	fC.Rehome(pB.Addr())
	waitSameState(t, fsB, fsC)
	if got := len(stateOf(t, fsC)); got != 55 {
		t.Fatalf("re-homed follower has %d rows, want 55 (zero committed txs lost)", got)
	}
	waitFollowerEpoch(t, fC, 2, pB.Addr())
}

// waitFollowerEpoch polls until the follower reports the given epoch
// and primary. State equality can hold an instant before the epoch
// does — the epoch becomes durable only at snapshot end, after the
// last row has already been applied.
func waitFollowerEpoch(t *testing.T, f *Follower, epoch uint64, primary string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Status()
		if st.Epoch == epoch && st.Primary == primary {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached epoch %d at %s: %+v", epoch, primary, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStalePrimaryFencedByHigherEpoch(t *testing.T) {
	dirA := t.TempDir()
	psA := openStore(t, dirA, smallSegs())
	commitN(t, psA, 10, 0)
	pA := startPrimary(t, psA, 1000)

	fsB := openStore(t, t.TempDir(), smallSegs())
	fB := startFollower(t, followerConfig(fsB, t.TempDir(), pA.Addr(), "b"))
	waitReady(t, fB)
	waitConverged(t, psA, fB)

	pA.Close()
	pB := promote(t, fB)
	commitN(t, fsB, 10, 500)

	// A follower joins the new timeline so its durable epoch becomes 2.
	fsD := openStore(t, t.TempDir(), smallSegs())
	dirD := t.TempDir()
	fD := startFollower(t, followerConfig(fsD, dirD, pB.Addr(), "d"))
	waitReady(t, fD)
	waitConverged(t, fsB, fD)
	fD.Close()
	before := len(stateOf(t, fsD))

	// The old primary comes back, still claiming epoch 1.
	lnA2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	fencedCh := make(chan uint64, 1)
	pA2, err := StartPrimary(PrimaryConfig{
		Store:          psA,
		Listener:       lnA2,
		Epoch:          1,
		MaxLagSegments: 1000,
		HeartbeatEvery: 25 * time.Millisecond,
		WriteTimeout:   time.Second,
		OnFenced:       func(e uint64) { fencedCh <- e },
	})
	if err != nil {
		t.Fatalf("StartPrimary (returned stale): %v", err)
	}
	t.Cleanup(func() { pA2.Close() })

	// An epoch-2 follower misdirected at the stale primary must fence it
	// on the handshake and apply nothing from the old timeline.
	fD2 := startFollower(t, followerConfig(fsD, dirD, pA2.Addr(), "d"))
	select {
	case e := <-fencedCh:
		if e != 2 {
			t.Fatalf("OnFenced(%d), want 2", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stale primary never fenced")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !pA2.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("Fenced() never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := pA2.Status(); !st.Fenced || st.Role != "primary" {
		t.Fatalf("fenced primary status: %+v", st)
	}
	if got := len(stateOf(t, fsD)); got != before {
		t.Fatalf("fenced exchange changed follower state: %d rows, had %d", got, before)
	}

	// A fenced primary refuses fresh followers outright.
	fsE := openStore(t, t.TempDir(), smallSegs())
	fE := startFollower(t, followerConfig(fsE, t.TempDir(), pA2.Addr(), "e"))
	select {
	case <-fE.Ready():
		t.Fatal("follower of a fenced primary became ready")
	case <-time.After(400 * time.Millisecond):
	}
	if fsE.Len() != 0 {
		t.Fatal("fenced primary shipped data")
	}

	// Recovery: re-homed onto the real primary, the misdirected follower
	// converges to the live timeline.
	fD2.Rehome(pB.Addr())
	waitSameState(t, fsB, fsD)
	waitFollowerEpoch(t, fD2, 2, pB.Addr())
}

// TestPromoteFaultSweep arms every faultnet mode at a range of
// operation offsets from the re-home dial onward: whatever the wire
// does during the cutover, the surviving follower reconverges onto the
// promoted primary with byte-identical state. The promoted primary keeps
// committing until the armed fault has fired (commitUntilFired).
func TestPromoteFaultSweep(t *testing.T) {
	modes := []faultnet.Mode{faultnet.Drop, faultnet.Partial, faultnet.Corrupt, faultnet.Stall}
	for _, mode := range modes {
		for _, at := range []uint64{1, 2, 3, 5, 9} {
			t.Run(fmt.Sprintf("%s_at_%d", mode, at), func(t *testing.T) {
				psA := openStore(t, t.TempDir(), smallSegs())
				commitN(t, psA, 15, 0)
				pA := startPrimary(t, psA, 1000)

				fsB := openStore(t, t.TempDir(), smallSegs())
				fB := startFollower(t, followerConfig(fsB, t.TempDir(), pA.Addr(), "b"))

				fault := faultnet.New()
				fault.SetStall(600 * time.Millisecond) // beyond HeartbeatTimeout
				fsC := openStore(t, t.TempDir(), smallSegs())
				cfgC := followerConfig(fsC, t.TempDir(), pA.Addr(), "c")
				cfgC.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
					c, err := net.DialTimeout("tcp", addr, timeout)
					if err != nil {
						return nil, err
					}
					return fault.Conn(c), nil
				}
				fC := startFollower(t, cfgC)
				waitReady(t, fB)
				waitReady(t, fC)
				commitN(t, psA, 10, 100)
				waitConverged(t, psA, fB)
				waitConverged(t, psA, fC)

				pA.Close()
				pB := promote(t, fB)
				commitN(t, fsB, 10, 1000)

				// Arm relative to the current op count so the fault lands
				// on the re-home session, not the initial sync.
				fault.ArmAt(fault.Ops()+at, mode)
				fC.Rehome(pB.Addr())
				commitUntilFired(t, fsB, fault, 2000)
				waitSameState(t, fsB, fsC)
			})
		}
	}
}

// TestPromoteFailureLeavesConsistentFollowerStore: when the listener
// cannot start, the store must re-enter replica mode so the node stays
// a well-behaved (stopped) follower and Promote can be retried.
func TestPromoteFailureReversible(t *testing.T) {
	psA := openStore(t, t.TempDir(), smallSegs())
	commitN(t, psA, 10, 0)
	pA := startPrimary(t, psA, 1000)
	fsB := openStore(t, t.TempDir(), smallSegs())
	fB := startFollower(t, followerConfig(fsB, t.TempDir(), pA.Addr(), "b"))
	waitReady(t, fB)
	waitConverged(t, psA, fB)

	if _, err := Promote(PromoteConfig{Follower: fB}); err == nil {
		t.Fatal("Promote without a listener succeeded")
	}
	// The store must still be in replica mode: the nil-listener failure
	// happens before any state change, so local commits stay refused.
	tx := fsB.Begin()
	if _, err := tx.Insert(row(9999, 1, "M")); err != nil {
		t.Fatalf("Insert staging: %v", err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("local commit succeeded on follower after failed Promote")
	}

	// Retry with a real listener works: promotion is restartable.
	pA.Close()
	pB := promote(t, fB)
	commitN(t, fsB, 5, 900)
	if pB.Epoch() != 2 {
		t.Fatalf("retried promotion epoch = %d, want 2", pB.Epoch())
	}
}

func TestEpochAndCursorPersistence(t *testing.T) {
	fs := smallSegs().FS
	dir := t.TempDir()

	// Nothing on disk: epoch 0, no cursor.
	if e, err := knownEpoch(fs, dir); err != nil || e != 0 {
		t.Fatalf("knownEpoch(empty) = %d, %v", e, err)
	}

	// Cursor record carries the epoch with it.
	cur := oltp.WALCursor{Seq: 7, Off: 4096}
	if err := saveCursor(fs, dir, 3, cur); err != nil {
		t.Fatalf("saveCursor: %v", err)
	}
	e, got, ok, err := loadCursor(fs, dir)
	if err != nil || !ok || e != 3 || got != cur {
		t.Fatalf("loadCursor = epoch %d cur %s ok %v err %v", e, got, ok, err)
	}
	if e, err := knownEpoch(fs, dir); err != nil || e != 3 {
		t.Fatalf("knownEpoch(cursor only) = %d, %v", e, err)
	}

	// The standalone epoch file (written by a promoted primary) takes
	// precedence when higher: a node that led at epoch 5 must never come
	// back believing epoch 3.
	if err := saveEpoch(fs, dir, 5); err != nil {
		t.Fatalf("saveEpoch: %v", err)
	}
	if e, err := knownEpoch(fs, dir); err != nil || e != 5 {
		t.Fatalf("knownEpoch(epoch file 5, cursor 3) = %d, %v", e, err)
	}
	if e, ok, err := loadEpoch(fs, dir); err != nil || !ok || e != 5 {
		t.Fatalf("loadEpoch = %d, %v, %v", e, ok, err)
	}
}

func TestPromotionEpochSurvivesRestart(t *testing.T) {
	psA := openStore(t, t.TempDir(), smallSegs())
	commitN(t, psA, 10, 0)
	pA := startPrimary(t, psA, 1000)
	dirB := t.TempDir()
	fsB := openStore(t, t.TempDir(), smallSegs())
	fB := startFollower(t, followerConfig(fsB, dirB, pA.Addr(), "b"))
	waitReady(t, fB)
	waitConverged(t, psA, fB)
	pA.Close()

	pB := promote(t, fB)
	if pB.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", pB.Epoch())
	}
	pB.Close()

	// The epoch survives in the cursor directory: a primary restarted
	// from the same dir resumes at 2, not 1.
	if e, err := knownEpoch(smallSegs().FS, dirB); err != nil || e != 2 {
		t.Fatalf("knownEpoch after promotion = %d, %v", e, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	pB2, err := StartPrimary(PrimaryConfig{
		Store:          fsB,
		Listener:       ln,
		Dir:            dirB,
		MaxLagSegments: 1000,
		HeartbeatEvery: 25 * time.Millisecond,
		WriteTimeout:   time.Second,
	})
	if err != nil {
		t.Fatalf("StartPrimary (restart): %v", err)
	}
	defer pB2.Close()
	if pB2.Epoch() != 2 {
		t.Fatalf("restarted primary epoch = %d, want 2", pB2.Epoch())
	}
}
