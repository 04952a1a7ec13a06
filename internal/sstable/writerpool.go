package sstable

import (
	"sync"

	"repro/internal/vfs"
)

// WriterPool lends table writers that share one set of options, so a job
// takes a writer whose buffers an earlier job already sized instead of
// growing fresh ones. It keeps every writer given back, so it holds as many
// as jobs ever wrote tables at once. It is safe for concurrent use; a writer
// is its borrower's alone until Put.
type WriterPool struct {
	opts WriterOptions

	mu   sync.Mutex
	free []*Writer
}

// NewWriterPool returns an empty pool of writers with the given options.
func NewWriterPool(opts WriterOptions) *WriterPool { return &WriterPool{opts: opts} }

// Options returns the options of the pool's writers.
func (p *WriterPool) Options() WriterOptions { return p.opts }

// Get returns a writer targeted at f, as NewWriter would with the pool's
// options: an idle one Reset to f, or a new one.
func (p *WriterPool) Get(f vfs.File) *Writer {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return NewWriter(f, p.opts)
	}
	w := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.mu.Unlock()
	w.Reset(f)
	return w
}

// Put gives back a writer Get returned, finished or abandoned mid-table.
// The WriterMeta its Finish returned stays the caller's: nothing in it is
// the writer's.
func (p *WriterPool) Put(w *Writer) {
	// Drop the file and the last table's metadata now rather than at the
	// next Get.
	w.Reset(nil)
	p.mu.Lock()
	p.free = append(p.free, w)
	p.mu.Unlock()
}
