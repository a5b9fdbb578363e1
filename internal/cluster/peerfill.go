package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/cost"
	"repro/internal/service"
	"repro/internal/trace"
)

// maxPeerTableBytes bounds one peer-fill response. It matches the
// codec's own decode ceiling; a peer advertising more than this is
// cheaper to rebuild from than to download.
const maxPeerTableBytes = 1 << 30

// NewPeerFill returns the service.PeerFillFunc a shard installs to
// adopt tables from peers: GET {peer}/table/{fingerprint}, decode the
// pimtab-v2 payload, and verify the echoed fingerprint.
// maxTableCells bounds the cell count a payload's header may declare —
// pass the same value as service.Config.MaxTableCells, so a shard never
// adopts a table its own trace guards would refuse to build (<= 0 means
// only the codec's 1 GiB hard ceiling applies). Every failure is an
// error — the service treats any error as a silent fallback to a local
// build, so this client never needs to be clever. The caller's context
// carries the fetch deadline (service.Config.PeerFillTimeout).
func NewPeerFill(client *http.Client, maxTableCells int64) service.PeerFillFunc {
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	return func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL+"/table/"+fp.String(), nil)
		if err != nil {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: %w", err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: %w", err)
		}
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		if resp.StatusCode != http.StatusOK {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: %s has no table (status %d)", peerURL, resp.StatusCode)
		}
		payload, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerTableBytes+1))
		if err != nil {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: read: %w", err)
		}
		if len(payload) > maxPeerTableBytes {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: table exceeds %d bytes", maxPeerTableBytes)
		}
		gotFP, table, err := cost.DecodeTableV2Limit(payload, maxTableCells)
		if err != nil {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: %w", err)
		}
		if gotFP != fp {
			return cost.ResidenceTable{}, fmt.Errorf("cluster: peer fill: payload is for %s, want %s", gotFP, fp)
		}
		return table, nil
	}
}
