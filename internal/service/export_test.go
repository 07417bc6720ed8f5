package service

import (
	"context"

	"sprinklers/internal/resultcache"
)

// Cache returns the server's result cache store.
func (s *Server) Cache() *resultcache.Store { return s.cache }

// Version fetches the daemon's build and runtime identity.
func (c *Client) Version(ctx context.Context) (VersionInfo, error) {
	var out VersionInfo
	err := c.getJSON(ctx, "/api/v1/version", &out)
	return out, err
}

// Status fetches one study's status.
func (c *Client) Status(ctx context.Context, id string) (StudyStatus, error) {
	var out struct {
		Status StudyStatus `json:"status"`
	}
	err := c.getJSON(ctx, "/api/v1/studies/"+id, &out)
	return out.Status, err
}
