// Fixture for the ctxpropagate analyzer: root contexts in library code,
// swallowed cancellation, and the *Ctx signature contract.
package a

import "context"

// BuildCtx is a cancellable long-running API.
func BuildCtx(ctx context.Context, n int) int {
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return i
		}
	}
	return n
}

func processCtx(ctx context.Context) int {
	return BuildCtx(ctx, 1) // ok: forwards the caller's context
}

// Build is a context-free wrapper for BuildCtx: library code mints no
// root context, wrapper or not.
func Build(n int) int {
	return BuildCtx(context.Background(), n) // want `context.Background in library code` `exported Build calls BuildCtx but accepts no context`
}

// Search swallows cancellation for every caller above it.
func Search(n int) int {
	return BuildCtx(context.Background(), n) // want `context.Background in library code` `exported Search calls BuildCtx but accepts no context`
}

func helper(n int) int {
	return BuildCtx(context.Background(), n) // want `context.Background in library code`
}

// Fallback replaces a nil context with a root one instead of requiring
// the caller's.
func Fallback(ctx context.Context, n int) int {
	if ctx == nil {
		ctx = context.Background() // want `context.Background in library code`
	}
	return BuildCtx(ctx, n)
}

func Todo(ctx context.Context) int {
	return processCtx(context.TODO()) // want `context.TODO in library code`
}

// RunCtx breaks the naming contract: the Ctx suffix promises a context
// parameter.
func RunCtx(n int) int { // want `exported RunCtx does not take a context.Context`
	return n
}

// Stats calls no cancellable API, so it needs no context.
func Stats(n int) int {
	return n + 1
}

// Sweep accepts a context in a non-leading position; the propagation rule
// is satisfied (only *Ctx functions promise a leading context).
func Sweep(n int, ctx context.Context) int {
	return BuildCtx(ctx, n)
}
