package engine

// ParkWorker parks the worker of shard 0 until the returned function is
// called, for tests that fill the ingest queues behind a busy worker. It
// queues an item that applies nothing and whose release blocks: the
// worker runs release when it drops the item's only reference. The
// pipeline must be running; tests give it one worker, so shard 0 holds
// every synopsis.
func ParkWorker(e *Engine) (unpark func()) {
	parked, gate := make(chan struct{}), make(chan struct{})
	done := newGroupDone(func() {
		close(parked)
		<-gate
	})
	ing := e.ing.Load()
	ing.fanMu.RLock()
	e.metrics.QueueDepth.Add(1)
	ing.chans[0] <- ingestItem{done: done}
	ing.fanMu.RUnlock()
	<-parked
	return func() { close(gate) }
}
