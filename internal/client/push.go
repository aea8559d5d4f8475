package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"forecache/internal/push"
	"forecache/internal/tile"
)

// DefaultSlotCap bounds the client-side buffer of streamed tiles. The
// buffer is a receive-side mirror of the server's prefetch cache: small
// enough that a stale stream cannot pin unbounded memory, large enough to
// hold a few prediction batches ahead of the viewer.
const DefaultSlotCap = 64

// reattachDelay paces redial attempts after a dropped stream.
const reattachDelay = 50 * time.Millisecond

// PushStats counts client-side push-stream activity.
type PushStats struct {
	Frames     int // tile frames received (including backfills)
	Backfills  int // frames the server flagged as reconnect backfill
	Heartbeats int // idle keepalives received
	Evicted    int // slots dropped because the buffer was full
	Consumed   int // Tile() calls answered from the slot buffer
	Reattached int // successful redials after a dropped stream
	Buffered   int // slots currently held
}

// streamState is one Attach's lifetime: cancel tears the consumer down,
// done closes once the consumer goroutine has fully exited.
type streamState struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// Attach opens the server's push stream for this client's session and
// consumes it in the background: every streamed tile lands in the slot
// buffer where a later Tile() call for that coordinate will find it. A
// dropped stream is redialed automatically (the server backfills the
// session's cached predictions on reconnect) until Detach is called. The
// initial dial is synchronous so deployment errors (push disabled, server
// down) surface immediately.
func (c *Client) Attach() error {
	c.mu.Lock()
	if c.stream != nil {
		c.mu.Unlock()
		return errors.New("client: push stream already attached")
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &streamState{cancel: cancel, done: make(chan struct{})}
	c.stream = st
	c.mu.Unlock()

	resp, err := c.dialStream(ctx)
	if err != nil {
		cancel()
		close(st.done)
		c.mu.Lock()
		c.stream = nil
		c.mu.Unlock()
		return err
	}
	go c.consumeStream(ctx, st, resp)
	return nil
}

// Detach stops the background stream consumer and waits for it to exit.
// The slot buffer keeps its contents: already-delivered tiles stay
// consumable. Detaching an unattached client is a no-op.
func (c *Client) Detach() {
	c.mu.Lock()
	st := c.stream
	c.stream = nil
	c.mu.Unlock()
	if st == nil {
		return
	}
	st.cancel()
	<-st.done
}

// PushStats returns a snapshot of the stream counters.
func (c *Client) PushStats() PushStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.pstats
	st.Buffered = len(c.slots)
	return st
}

// dialStream opens one long-lived /stream response. It uses a dedicated
// http.Client: the regular one carries a global Timeout that would kill a
// healthy stream after 30s. Binary frames or SSE, whichever the server
// grants, streamDecoder reads.
func (c *Client) dialStream(ctx context.Context) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stream"+c.sessionQuery(), nil)
	if err != nil {
		return nil, err
	}
	c.negotiate(req)
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	if streamDecoder(resp) == nil {
		resp.Body.Close()
		return nil, fmt.Errorf("client: /stream content type %q", resp.Header.Get("Content-Type"))
	}
	return resp, nil
}

// streamDecoder picks the frame decoder the response's Content-Type names,
// nil for a type this client does not read.
func streamDecoder(resp *http.Response) func(*bufio.Reader) (push.Frame, error) {
	switch resp.Header.Get("Content-Type") {
	case "text/event-stream":
		return push.Decode
	case push.BinaryContentType:
		return push.DecodeBinary
	}
	return nil
}

// consumeStream decodes frames until the stream drops, then redials until
// Detach cancels the context.
func (c *Client) consumeStream(ctx context.Context, st *streamState, resp *http.Response) {
	defer close(st.done)
	for {
		r, decode := bufio.NewReader(resp.Body), streamDecoder(resp)
		for {
			f, err := decode(r)
			if err != nil {
				break
			}
			c.storeFrame(f)
		}
		resp.Body.Close()
		// Redial until it sticks or the client detaches.
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(reattachDelay):
			}
			next, err := c.dialStream(ctx)
			if err == nil {
				resp = next
				c.mu.Lock()
				c.pstats.Reattached++
				c.mu.Unlock()
				break
			}
			if ctx.Err() != nil {
				return
			}
		}
	}
}

// storeFrame files one decoded frame into the slot buffer. Newest wins:
// a repeated coordinate supersedes the old slot in place (and refreshes
// its eviction recency); at capacity the oldest slot is dropped.
func (c *Client) storeFrame(f push.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.Type == push.FrameHeartbeat {
		c.pstats.Heartbeats++
		return
	}
	if f.Type != push.FrameTile || f.Tile == nil {
		return
	}
	if c.slots == nil {
		c.slots = make(map[tile.Coord]push.Frame)
	}
	if _, ok := c.slots[f.Coord]; ok {
		c.dropOrderLocked(f.Coord)
	} else if len(c.slots) >= DefaultSlotCap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.slots, oldest)
		c.pstats.Evicted++
	}
	c.slots[f.Coord] = f
	c.order = append(c.order, f.Coord)
	c.pstats.Frames++
	if f.Backfill {
		c.pstats.Backfills++
	}
}

// takeSlot consumes the buffered slot for a coordinate, if any.
func (c *Client) takeSlot(coord tile.Coord) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.slots[coord]; !ok {
		return false
	}
	delete(c.slots, coord)
	c.dropOrderLocked(coord)
	c.pstats.Consumed++
	return true
}

func (c *Client) dropOrderLocked(coord tile.Coord) {
	for i, o := range c.order {
		if o == coord {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}
