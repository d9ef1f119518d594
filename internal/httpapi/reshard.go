// Reshard admin surface: POST /v1/reshard starts (or resumes) a live shard
// split, GET /v1/reshard reports its progress, POST /v1/reshard/abort rolls
// a pre-cutover migration back. The endpoints only launch and observe — the
// coordinator itself is store-driven (see internal/shard), so the fleet
// converges even if the node that accepted the POST dies mid-flight and the
// operator re-POSTs anywhere else.

package httpapi

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"

	"switchboard/internal/shard"
)

// ReshardAdmin launches reshard coordinators on behalf of the admin API.
// Wired by cmd/switchboard; nil leaves the endpoints unregistered.
type ReshardAdmin struct {
	// Manager supplies the observed epoch/phase/progress for GET.
	Manager *shard.Manager
	// NewCoordinator builds a coordinator with its own store client; the
	// admin closes it when the run ends.
	NewCoordinator func() (*shard.Coordinator, error)
	Logger         *slog.Logger

	mu      sync.Mutex
	running bool               // a coordinator goroutine is live on this node
	cancel  context.CancelFunc // cancels the local run
}

// errReshardBusy distinguishes 409s from 500s at the handler.
type errReshardBusy struct{ holder string }

func (e errReshardBusy) Error() string {
	if e.holder != "" {
		return "reshard coordinator lease held by " + e.holder
	}
	return "reshard coordinator already running on this node"
}

// Start launches a coordinator run toward target shards in the background.
// ctx bounds only the advisory lease check; the run outlives it.
func (ra *ReshardAdmin) Start(ctx context.Context, target int) error {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if ra.running {
		return errReshardBusy{}
	}
	co, err := ra.NewCoordinator()
	if err != nil {
		return err
	}
	// Advisory pre-check so a second node's POST answers 409 instead of
	// silently queueing a coordinator behind the live one. Racy by nature —
	// the lease, not this check, is what actually arbitrates.
	if holder := co.LeaseHolder(ctx); holder != "" && holder != ra.Manager.ID() {
		_ = co.Close()
		return errReshardBusy{holder: holder}
	}
	//sblint:allow ctxflow -- the run outlives the request that starts it
	runCtx, cancel := context.WithCancel(context.Background())
	ra.running, ra.cancel = true, cancel
	go func() {
		defer func() {
			cancel()
			_ = co.Close()
			ra.mu.Lock()
			ra.running, ra.cancel = false, nil
			ra.mu.Unlock()
		}()
		st, err := co.Run(runCtx, target)
		if err != nil && ra.Logger != nil {
			ra.Logger.WarnContext(runCtx, "reshard run ended with error",
				"target", target, "phase", st.Phase, "err", err)
		}
	}()
	return nil
}

// Abort cancels any local run, then rolls the checkpointed migration back.
// ctx bounds the wait for the coordinator lease.
func (ra *ReshardAdmin) Abort(ctx context.Context) (shard.ReshardState, error) {
	ra.mu.Lock()
	if ra.cancel != nil {
		ra.cancel() // the local run releases the lease on its way out
	}
	ra.mu.Unlock()
	co, err := ra.NewCoordinator()
	if err != nil {
		return shard.ReshardState{}, err
	}
	defer func() { _ = co.Close() }()
	if holder := co.LeaseHolder(ctx); holder != "" && holder != ra.Manager.ID() {
		return shard.ReshardState{}, errReshardBusy{holder: holder}
	}
	return co.Abort(ctx)
}

// ReshardStartRequest is the body of POST /v1/reshard.
type ReshardStartRequest struct {
	TargetShards int `json:"target_shards"`
}

func (s *Server) handleReshardStart(w http.ResponseWriter, r *http.Request) {
	var req ReshardStartRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.TargetShards <= s.Reshard.Manager.Ring().Shards() {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("target_shards %d does not grow the %d-shard ring",
				req.TargetShards, s.Reshard.Manager.Ring().Shards()))
		return
	}
	if err := s.Reshard.Start(r.Context(), req.TargetShards); err != nil {
		code := http.StatusInternalServerError
		if _, busy := err.(errReshardBusy); busy {
			code = http.StatusConflict
		}
		httpError(w, code, err)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	s.reply(w, map[string]any{"status": "started", "target_shards": req.TargetShards})
}

func (s *Server) handleReshardStatus(w http.ResponseWriter, _ *http.Request) {
	m := s.Reshard.Manager
	out := map[string]any{
		"ring_epoch": m.RingEpoch(),
		"phase":      m.Phase(),
		"shards":     m.Ring().Shards(),
	}
	if st, ok := m.Reshard(); ok {
		out["migration"] = map[string]any{
			"from": st.From, "to": st.To, "phase": st.Phase,
			"copied": st.Copied, "total": st.Total,
		}
	}
	s.reply(w, out)
}

func (s *Server) handleReshardAbort(w http.ResponseWriter, r *http.Request) {
	st, err := s.Reshard.Abort(r.Context())
	if err != nil {
		code := http.StatusInternalServerError
		if _, busy := err.(errReshardBusy); busy {
			code = http.StatusConflict
		}
		httpError(w, code, err)
		return
	}
	s.reply(w, map[string]any{"status": "aborted", "was_phase": st.Phase})
}
