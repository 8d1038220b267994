package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// errSaturated is returned by submit when the queue is full;
// errDraining when the daemon has begun shutdown. Both map to 503.
var (
	errSaturated = errors.New("server: queue saturated")
	errDraining  = errors.New("server: draining")
)

// job is one unit of pooled work: run computes the response of a
// response cell or a watch push; deadline is the server-policy
// execution deadline (set at admission, so time spent queued counts
// against it).
type job struct {
	run      func(ctx context.Context)
	expired  func() // invoked instead of run when the deadline passed in the queue
	deadline time.Time
}

// pool is a fixed-size worker pool with a bounded queue. Saturation is
// load shedding, not backpressure: a full queue rejects immediately
// (the caller answers 503) instead of holding the connection hostage.
type pool struct {
	jobs chan job
	wg   sync.WaitGroup

	// sendMu serializes non-blocking channel sends with close: submit
	// paths hold it shared around their send attempt and close takes it
	// exclusively before closing the channel, so a send racing a
	// drain-budget-expired shutdown observes closed and answers 503
	// instead of panicking. Blocking sends (submitCtx's backpressure
	// wait) cannot hold a lock across the send — they rely on the
	// Server-level guarantee instead: every blocking submitter is
	// registered with Server.addSubmitter and unwound (via drain-expiry
	// context cancellation) before close is called.
	sendMu sync.RWMutex
	closed bool

	// baseCtx is the lifetime of the pool, NOT cancelled by drain —
	// draining means finishing admitted work, so jobs keep their own
	// deadlines and the base context stays live until Close.
	baseCtx context.Context
	cancel  context.CancelFunc

	draining atomic.Bool
	met      *metrics

	// hook runs at the start of every job when non-nil (test seam).
	hook func()
}

// newPool starts workers goroutines servicing a queue of depth queue.
func newPool(workers, queue int, met *metrics, hook func()) *pool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &pool{
		jobs:    make(chan job, queue),
		baseCtx: ctx,
		cancel:  cancel,
		met:     met,
		hook:    hook,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.met.queueDepth.Add(-1)
		if p.hook != nil {
			p.hook()
		}
		if !j.deadline.IsZero() && time.Now().After(j.deadline) {
			// The job sat in the queue past its whole budget; answer
			// 504 without burning a worker on work nobody is awaiting.
			p.met.timeoutQueue.Add(1)
			j.expired()
			continue
		}
		ctx := p.baseCtx
		var cancel context.CancelFunc
		if !j.deadline.IsZero() {
			ctx, cancel = context.WithDeadline(ctx, j.deadline)
		}
		p.met.workersBusy.Add(1)
		j.run(ctx)
		p.met.workersBusy.Add(-1)
		if cancel != nil {
			cancel()
		}
	}
}

// trySend is the non-blocking enqueue attempt shared by both submit
// disciplines: sent on success, closed when the pool already shut.
func (p *pool) trySend(j job) (sent, closed bool) {
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return false, true
	}
	select {
	case p.jobs <- j:
		p.met.queueDepth.Add(1)
		return true, false
	default:
		return false, false
	}
}

// submit enqueues a job, rejecting instead of blocking when the queue
// is full or the pool is draining.
func (p *pool) submit(j job) error {
	if p.draining.Load() {
		p.met.saturated.Add(1)
		return errDraining
	}
	sent, closed := p.trySend(j)
	if sent {
		return nil
	}
	p.met.saturated.Add(1)
	if closed {
		return errDraining
	}
	return errSaturated
}

// submitCtx enqueues a job with backpressure: when the queue is full
// it blocks until a worker frees a slot or ctx ends, instead of
// shedding like submit. This is the batch path — a batch was admitted
// as a whole, so its items stall the stream rather than fail, and the
// stall propagates to the client as a paused NDJSON stream (TCP
// backpressure) instead of a retry storm. It deliberately does not
// check draining: batch items are continuations of already-admitted
// work. The blocking send is safe against close because every caller
// is a registered submitter (Server.addSubmitter) whose ctx includes
// the server's drain context: Shutdown cancels that context when its
// budget expires and waits for every submitter to return before
// calling close, so no goroutine can still be parked in this send when
// the channel closes.
func (p *pool) submitCtx(ctx context.Context, j job) error {
	sent, closed := p.trySend(j)
	if sent {
		return nil
	}
	if closed {
		return errDraining
	}
	p.met.batchBackpressure.Add(1)
	select {
	case p.jobs <- j:
		p.met.queueDepth.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain stops admissions; already-queued and running jobs finish.
func (p *pool) drain() { p.draining.Store(true) }

// close waits for every admitted job to finish, then stops the
// workers. Call only after drain and after no goroutine can block in
// submitCtx (see its comment); racing non-blocking submits are fenced
// off by sendMu.
func (p *pool) close() {
	p.sendMu.Lock()
	p.closed = true
	p.sendMu.Unlock()
	close(p.jobs)
	p.wg.Wait()
	p.cancel()
}
