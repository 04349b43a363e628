package obsv

import "context"

// The request id rides the context: the HTTP layers of janusd and
// janusfront read it for their logs and error bodies, and a synthesis
// stamps it on its root span. The tracer, the parent span and the
// progress sink travel in core.Options instead. The accessor tolerates a
// nil context (core.Options.Ctx may be nil).

type ctxRequestIDKey struct{}

// ContextWithRequestID returns a context carrying the request id.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxRequestIDKey{}, id)
}

// RequestIDFromContext returns the request id attached to ctx, or "".
func RequestIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxRequestIDKey{}).(string)
	return id
}
