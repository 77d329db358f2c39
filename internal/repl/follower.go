package repl

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/oltp"
)

// FollowerConfig configures the receiving side of replication.
type FollowerConfig struct {
	// Store is the follower's own local store; it is switched into
	// replica mode (local writes refused) for the follower's lifetime.
	Store *oltp.Store
	// Dir holds the durable replication cursor.
	Dir string
	// FS is the filesystem for cursor persistence; nil means the real
	// one.
	FS faultfs.FS
	// PrimaryAddr is the primary's replication listener address.
	PrimaryAddr string
	// ID names this follower to the primary; it keys the primary's
	// retention pin, so it must be stable across restarts. Required.
	ID string
	// Dial opens the connection; tests wrap it in a faultnet fault.
	// Default net.DialTimeout("tcp", ...).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// DialTimeout bounds each connection attempt. Default 2s.
	DialTimeout time.Duration
	// HeartbeatTimeout tears the session down when no frame arrives
	// within it; must exceed the primary's HeartbeatEvery. Default 3s.
	HeartbeatTimeout time.Duration
	// WriteTimeout bounds hello/ack writes. Default 5s.
	WriteTimeout time.Duration
	// BackoffMin/BackoffMax bound the reconnect backoff (exponential,
	// jittered). Defaults 50ms / 2s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Log, when set, receives session lifecycle lines.
	Log *log.Logger
}

// Follower maintains the replication session: it dials, hands the
// primary its durable cursor, verifies and applies every frame, and on
// any fault reconnects with capped exponential backoff plus jitter.
type Follower struct {
	cfg FollowerConfig
	fs  faultfs.FS

	mu         sync.Mutex
	addr       string // current primary address; Rehome swaps it
	epoch      uint64 // highest epoch durably adopted
	cur        oltp.WALCursor
	state      string
	connected  bool
	conn       net.Conn
	resyncs    uint64
	reconnects uint64
	lastFrame  time.Time

	ready     chan struct{}
	readyOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// errProtocol wraps stream-rule violations (LSN regression, frame out
// of sequence); like every fault it forces a reconnect.
var errProtocol = errors.New("repl: protocol violation")

// errStaleEpoch marks a frame from an epoch below ours: the sender is a
// fenced-or-soon-to-be-fenced ex-primary and nothing it ships may be
// applied.
var errStaleEpoch = errors.New("repl: frame from stale epoch")

// maxApplyBatch caps how many buffered tx frames coalesce into one
// ApplyReplicated call (and so one local fsync) during catch-up.
const maxApplyBatch = 64

// StartFollower loads the durable cursor, puts the store in replica
// mode and starts the session loop.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Store == nil || cfg.PrimaryAddr == "" || cfg.ID == "" {
		return nil, errors.New("repl: follower needs a store, a primary address and an id")
	}
	if len(cfg.ID) > maxFollowerID {
		return nil, fmt.Errorf("repl: follower id longer than %d bytes", maxFollowerID)
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 3 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 50 * time.Millisecond
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = 2 * time.Second
	}
	f := &Follower{
		cfg:   cfg,
		fs:    cfg.FS,
		addr:  cfg.PrimaryAddr,
		state: "connecting",
		ready: make(chan struct{}),
		done:  make(chan struct{}),
	}
	if cfg.Dir != "" {
		if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
			return nil, fmt.Errorf("repl: creating cursor dir: %w", err)
		}
		epoch, cur, ok, err := loadCursor(cfg.FS, cfg.Dir)
		if err != nil {
			return nil, err
		}
		if ok {
			f.epoch = epoch
			f.cur = cur
		}
		// A node that once led (or fenced) knows an epoch beyond its
		// cursor's; the cursor indexes an older timeline then and must
		// not be resumed from.
		known, err := knownEpoch(cfg.FS, cfg.Dir)
		if err != nil {
			return nil, err
		}
		if known > f.epoch {
			f.epoch = known
			f.cur = oltp.WALCursor{}
		}
	}
	metricEpoch.Set(float64(f.epoch))
	cfg.Store.SetReplica(true)
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Ready is closed once the follower has first caught up with the
// primary (snapshot applied, or a heartbeat observed): its store then
// reflects the primary's state as of some recent LSN and is fit to
// bootstrap a warehouse from.
func (f *Follower) Ready() <-chan struct{} { return f.ready }

// Cursor is the primary-log position durably applied so far.
func (f *Follower) Cursor() oltp.WALCursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

// Epoch is the highest replication epoch this follower has durably
// adopted; Promote leads the next one.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// primaryAddr is the address the reconnect loop currently dials.
func (f *Follower) primaryAddr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addr
}

// Rehome points the follower at a different primary — after a
// promotion, survivors re-home to the new leader. The live session (if
// any) is torn down and the reconnect loop redials the new address;
// epoch rules take care of the rest (the new primary forces a snapshot
// bootstrap if our cursor indexes a superseded timeline).
func (f *Follower) Rehome(addr string) {
	f.mu.Lock()
	if f.addr == addr {
		f.mu.Unlock()
		return
	}
	f.addr = addr
	conn := f.conn
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Close stops the session loop and leaves the store in replica mode
// (the process is shutting down; promotion is an operator decision).
func (f *Follower) Close() error {
	f.mu.Lock()
	select {
	case <-f.done:
		f.mu.Unlock()
		return nil
	default:
	}
	close(f.done)
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
	return nil
}

// Status reports the follower's view for the /replication endpoint.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.cur
	st := Status{
		Role:       "follower",
		Epoch:      f.epoch,
		Primary:    f.addr,
		ID:         f.cfg.ID,
		State:      f.state,
		Connected:  f.connected,
		Cursor:     &cur,
		Resyncs:    f.resyncs,
		Reconnects: f.reconnects,
	}
	if !f.lastFrame.IsZero() {
		st.SecondsSinceFrame = time.Since(f.lastFrame).Seconds()
	}
	return st
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Log != nil {
		f.cfg.Log.Printf(format, args...)
	}
}

func (f *Follower) setState(s string) {
	f.mu.Lock()
	f.state = s
	f.mu.Unlock()
}

func (f *Follower) markReady() {
	f.readyOnce.Do(func() { close(f.ready) })
}

// run is the reconnect loop: each session runs until a fault, then the
// backoff doubles (reset after any productive session) and the loop
// redials. Every fault path converges here — that is the whole
// fault-tolerance story.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.cfg.BackoffMin
	for {
		select {
		case <-f.done:
			return
		default:
		}
		f.setState("connecting")
		metricReconnects.Inc()
		f.mu.Lock()
		f.reconnects++
		f.mu.Unlock()
		addr := f.primaryAddr()
		conn, err := f.cfg.Dial(addr, f.cfg.DialTimeout)
		if err != nil {
			faultConn.Inc()
			f.logf("repl: dial %s: %v", addr, err)
			if !f.sleep(backoff) {
				return
			}
			backoff = f.nextBackoff(backoff)
			continue
		}
		f.mu.Lock()
		select {
		case <-f.done:
			// Close ran while we were dialing and found no conn to
			// close; a session started now would never be interrupted.
			f.mu.Unlock()
			conn.Close()
			return
		default:
		}
		f.conn = conn
		f.connected = true
		f.mu.Unlock()

		productive, err := f.session(conn)
		conn.Close()
		f.mu.Lock()
		f.conn = nil
		f.connected = false
		f.mu.Unlock()
		select {
		case <-f.done:
			return
		default:
		}
		if err != nil {
			f.countFault(err)
			f.logf("repl: session with %s ended: %v", addr, err)
		}
		if productive {
			backoff = f.cfg.BackoffMin
		}
		f.setState("backoff")
		if !f.sleep(backoff) {
			return
		}
		backoff = f.nextBackoff(backoff)
	}
}

func (f *Follower) countFault(err error) {
	switch {
	case errors.Is(err, errStaleEpoch):
		faultEpoch.Inc()
		metricFenced.Inc()
	case errors.Is(err, ErrBadFrame):
		faultFrame.Inc()
	case errors.Is(err, errProtocol):
		faultProtocol.Inc()
	default:
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			faultTimeout.Inc()
		} else {
			faultConn.Inc()
		}
	}
}

// sleep waits d plus/minus jitter, returning false if closed meanwhile.
func (f *Follower) sleep(d time.Duration) bool {
	jittered := d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-f.done:
		return false
	case <-t.C:
		return true
	}
}

func (f *Follower) nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > f.cfg.BackoffMax {
		d = f.cfg.BackoffMax
	}
	return d
}

// session speaks one connection's worth of protocol: hello, then apply
// frames until something is wrong. It returns whether any frame was
// verified (to reset the backoff) and the terminating error.
func (f *Follower) session(conn net.Conn) (productive bool, err error) {
	f.mu.Lock()
	cur := f.cur
	epoch := f.epoch
	f.mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(f.cfg.WriteTimeout))
	hello := frame{typ: fHello, epoch: epoch, lsn: cur, payload: encodeHello(f.cfg.ID, schemaHash(f.cfg.Store.Schema()))}
	if err := writeFrame(conn, hello); err != nil {
		return false, err
	}
	f.setState("streaming")
	br := bufio.NewReaderSize(conn, 64<<10)

	// Snapshot bootstrap accumulation. The whole snapshot applies as
	// one replicated transaction at fSnapEnd — wipe plus rebuild — so a
	// fault mid-bootstrap leaves the previous consistent state and the
	// cursor untouched.
	var (
		snapping  bool
		snapLSN   oltp.WALCursor
		snapRows  uint64
		snapAccum []oltp.Change
		snapMeta  []oltp.Change // meta-state changes; not counted in snapRows
	)

	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.HeartbeatTimeout))
		fr, err := readFrame(br)
		if err != nil {
			return productive, err
		}
		productive = true
		f.mu.Lock()
		f.lastFrame = time.Now()
		f.mu.Unlock()

		// Fencing: no frame from an epoch below ours is ever applied —
		// its sender is a superseded primary. Frames from a HIGHER epoch
		// are only acceptable as a snapshot bootstrap (our cursor indexes
		// the old timeline, so resuming mid-stream would be wrong); the
		// epoch is adopted durably together with the snapshot cursor.
		if fr.epoch < epoch && fr.typ != fError {
			return productive, fmt.Errorf("%w: %s frame from epoch %d, ours %d", errStaleEpoch, fr.typ, fr.epoch, epoch)
		}
		if fr.epoch > epoch && fr.typ != fSnapBegin && fr.typ != fError {
			return productive, fmt.Errorf("%w: %s frame from newer epoch %d without snapshot bootstrap (ours %d)", errProtocol, fr.typ, fr.epoch, epoch)
		}

		switch fr.typ {
		case fTx:
			if snapping {
				return productive, fmt.Errorf("%w: tx frame inside snapshot", errProtocol)
			}
			if !cur.Less(fr.lsn) {
				return productive, fmt.Errorf("%w: tx LSN %s not after cursor %s", errProtocol, fr.lsn, cur)
			}
			tx, err := oltp.DecodeTxPayload(fr.payload)
			if err != nil {
				return productive, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			tx.End = fr.lsn
			batch := []oltp.CommittedTx{tx}
			last := fr.lsn
			// Drain tx frames the primary already sent into the same
			// apply batch: one local WAL fsync and one cursor save then
			// cover all of them, which is what makes backlog catch-up
			// disk-bound on batches rather than on per-tx syncs. Only
			// fully buffered headers are peeked, so an idle stream never
			// blocks here.
			for len(batch) < maxApplyBatch && br.Buffered() >= headerLen {
				hdr, err := br.Peek(5)
				if err != nil || frameType(hdr[4]) != fTx {
					break
				}
				nfr, err := readFrame(br)
				if err != nil {
					return productive, err
				}
				if !last.Less(nfr.lsn) {
					return productive, fmt.Errorf("%w: tx LSN %s not after %s", errProtocol, nfr.lsn, last)
				}
				ntx, err := oltp.DecodeTxPayload(nfr.payload)
				if err != nil {
					return productive, fmt.Errorf("%w: %v", ErrBadFrame, err)
				}
				ntx.End = nfr.lsn
				batch = append(batch, ntx)
				last = nfr.lsn
			}
			if err := f.cfg.Store.ApplyReplicated(batch); err != nil {
				faultApply.Inc()
				return productive, err
			}
			metricTxApplied.Add(uint64(len(batch)))
			cur = last
			if err := f.advance(epoch, cur); err != nil {
				return productive, err
			}
			if err := f.ack(conn, epoch, cur); err != nil {
				return productive, err
			}

		case fHeartbeat:
			if snapping {
				return productive, fmt.Errorf("%w: heartbeat inside snapshot", errProtocol)
			}
			// The stream is single and in-order: a heartbeat at L means
			// everything up to L was already delivered to us, so the
			// cursor may fast-forward even though no tx frames arrived.
			if cur.Less(fr.lsn) {
				cur = fr.lsn
				if err := f.advance(epoch, cur); err != nil {
					return productive, err
				}
			}
			if err := f.ack(conn, epoch, cur); err != nil {
				return productive, err
			}
			f.markReady()

		case fSnapBegin:
			if snapping {
				return productive, fmt.Errorf("%w: nested snapshot", errProtocol)
			}
			rows, err := decodeSnapBegin(fr.payload)
			if err != nil {
				return productive, err
			}
			// Adopt the sender's (equal or higher) epoch: it becomes
			// durable only at fSnapEnd, in the same record as the
			// snapshot cursor, so a fault mid-bootstrap leaves the old
			// (epoch, cursor) pair intact.
			epoch = fr.epoch
			snapping, snapLSN, snapRows = true, fr.lsn, rows
			snapAccum, snapMeta = snapAccum[:0], snapMeta[:0]
			f.setState("snapshotting")
			f.mu.Lock()
			f.resyncs++
			f.mu.Unlock()
			metricResyncs.Inc()
			f.logf("repl: snapshot bootstrap from %s: %d rows at %s (epoch %d)", conn.RemoteAddr(), rows, fr.lsn, epoch)

		case fSnapChunk:
			if !snapping {
				return productive, fmt.Errorf("%w: snapshot chunk outside snapshot", errProtocol)
			}
			chunk, err := oltp.DecodeTxPayload(fr.payload)
			if err != nil {
				return productive, fmt.Errorf("%w: %v", ErrBadFrame, err)
			}
			for _, ch := range chunk.Changes {
				switch ch.Op {
				case oltp.ChangeInsert:
					snapAccum = append(snapAccum, ch)
				case oltp.ChangeMeta:
					snapMeta = append(snapMeta, ch)
				default:
					return productive, fmt.Errorf("%w: non-insert in snapshot chunk", errProtocol)
				}
			}
			if uint64(len(snapAccum)) > snapRows {
				return productive, fmt.Errorf("%w: snapshot overflow: %d rows announced, %d received", errProtocol, snapRows, len(snapAccum))
			}

		case fSnapEnd:
			if !snapping || fr.lsn != snapLSN {
				return productive, fmt.Errorf("%w: unmatched snapshot end", errProtocol)
			}
			if uint64(len(snapAccum)) != snapRows {
				return productive, fmt.Errorf("%w: snapshot short: %d rows announced, %d received", errProtocol, snapRows, len(snapAccum))
			}
			// Wipe-and-rebuild as one transaction: deletes of every
			// current local row, then the snapshot inserts. Idempotent
			// and atomic through the local WAL.
			changes := make([]oltp.Change, 0, len(snapAccum)+len(snapMeta)+16)
			for _, id := range f.cfg.Store.RowIDs() {
				changes = append(changes, oltp.Change{Op: oltp.ChangeDelete, ID: id})
			}
			changes = append(changes, snapAccum...)
			// Meta-state restore applies after the rows, inside the same
			// transaction: the follower's KB (or other meta state) is
			// replaced atomically with its row image.
			changes = append(changes, snapMeta...)
			if err := f.cfg.Store.ApplyReplicated([]oltp.CommittedTx{{Changes: changes}}); err != nil {
				faultApply.Inc()
				return productive, err
			}
			cur = snapLSN
			if err := f.advance(epoch, cur); err != nil {
				return productive, err
			}
			if err := f.ack(conn, epoch, cur); err != nil {
				return productive, err
			}
			snapping = false
			f.setState("streaming")
			f.markReady()

		case fError:
			return productive, fmt.Errorf("repl: primary refused session: %s", fr.payload)

		default:
			return productive, fmt.Errorf("%w: unexpected %s frame", errProtocol, fr.typ)
		}
	}
}

// advance persists the new durable (epoch, cursor) pair.
func (f *Follower) advance(epoch uint64, cur oltp.WALCursor) error {
	if f.cfg.Dir != "" {
		if err := saveCursor(f.fs, f.cfg.Dir, epoch, cur); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.epoch = epoch
	f.cur = cur
	f.mu.Unlock()
	metricEpoch.Set(float64(epoch))
	return nil
}

// ack reports the applied cursor (and our epoch) back to the primary.
func (f *Follower) ack(conn net.Conn, epoch uint64, cur oltp.WALCursor) error {
	conn.SetWriteDeadline(time.Now().Add(f.cfg.WriteTimeout))
	return writeFrame(conn, frame{typ: fAck, epoch: epoch, lsn: cur})
}
