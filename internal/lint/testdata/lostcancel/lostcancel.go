// Package lostcancel holds the context-cancel leaks detlint leaves to go
// vet: its lostcancel analyzer must report the cancel func that one path
// never calls and the one discarded at the binding, and stay silent on
// the clean and ownership-moving shapes.
package lostcancel

import (
	"context"
	"time"
)

// leak forgets cancel on the early-return path.
func leak(ctx context.Context, fast bool) error {
	ctx2, cancel := context.WithTimeout(ctx, time.Second) // want `the cancel function is not used on all paths \(possible context leak\)`
	if fast {
		return nil // want `this return statement may be reached without using the cancel var defined on line 14`
	}
	defer cancel()
	return work(ctx2)
}

// deferred is the canonical clean shape.
func deferred(ctx context.Context) error {
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	return work(ctx2)
}

// explicit calls cancel on every path: clean.
func explicit(ctx context.Context, b bool) error {
	ctx2, cancel := context.WithDeadline(ctx, time.Time{})
	if b {
		cancel()
		return nil
	}
	err := work(ctx2)
	cancel()
	return err
}

// discarded drops the cancel func at the binding.
func discarded(ctx context.Context) context.Context {
	ctx2, _ := context.WithCancel(ctx) // want `the cancel function returned by context\.WithCancel should be called, not discarded, to avoid a context leak`
	return ctx2
}

// transferred returns the cancel func: the caller owns it.
func transferred(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx2, cancel := context.WithCancel(ctx)
	return ctx2, cancel
}

// captured hands cancel to a goroutine: ownership moves out of frame.
func captured(ctx context.Context, done <-chan struct{}) context.Context {
	ctx2, cancel := context.WithCancel(ctx)
	go func() {
		<-done
		cancel()
	}()
	return ctx2
}

// assigned hands cancel to the blank identifier: a use, so vet is quiet.
func assigned(ctx context.Context) context.Context {
	ctx2, cancel := context.WithCancel(ctx)
	_ = cancel
	return ctx2
}

func work(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}
