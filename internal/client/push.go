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
	Consumed   int // Tile() calls that returned a slot's tile
	Rejected   int // slots taken by Tile() whose tile failed to decode
	Reattached int // successful redials after a dropped stream
	Buffered   int // slots currently held
}

// slot is one buffered frame and the X-Tile-Epoch of the stream that
// delivered it, which names its tile in the ETag Tile revalidates.
type slot struct {
	frame push.Frame
	epoch string
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

// consumeStream reads frames into the slot buffer until the stream drops,
// then redials until Detach cancels the context. It checks each frame's
// framing only: a tile is decoded when Tile consumes its slot, on the
// caller's goroutine, so a frame nobody asks for costs no decode, and a
// frame whose tile is damaged is rejected then without dropping the stream.
func (c *Client) consumeStream(ctx context.Context, st *streamState, resp *http.Response) {
	defer close(st.done)
	for {
		r, decode := bufio.NewReader(resp.Body), streamDecoder(resp)
		epoch := resp.Header.Get("X-Tile-Epoch")
		for {
			f, err := decode(r)
			if err != nil {
				break
			}
			c.storeFrame(f, epoch)
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

// storeFrame files one received frame, delivered under epoch, into the
// slot buffer. Newest wins: a repeated coordinate supersedes the old slot
// in place (and refreshes its eviction recency); at capacity the oldest
// slot is dropped.
func (c *Client) storeFrame(f push.Frame, epoch string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.Type == push.FrameHeartbeat {
		c.pstats.Heartbeats++
		return
	}
	if f.Type != push.FrameTile {
		return
	}
	if c.slots == nil {
		c.slots = make(map[tile.Coord]slot)
	}
	if _, ok := c.slots[f.Coord]; ok {
		c.dropSlotLocked(f.Coord)
	} else if len(c.slots) >= DefaultSlotCap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.slots, oldest)
		c.pstats.Evicted++
	}
	c.slots[f.Coord] = slot{frame: f, epoch: epoch}
	c.order = append(c.order, f.Coord)
	c.pstats.Frames++
	if f.Backfill {
		c.pstats.Backfills++
	}
}

// slotTile returns the tile of the buffered slot for a coordinate, decoded
// outside the lock, with the slot's epoch; a nil tile if there is no slot
// or its tile fails to decode (the slot is then dropped and counted
// Rejected). The slot stays buffered: Tile drops it once the server has
// answered, and counts Consumed if it returns the slot's tile.
func (c *Client) slotTile(coord tile.Coord) (*tile.Tile, string) {
	c.mu.Lock()
	sl, ok := c.slots[coord]
	c.mu.Unlock()
	if !ok {
		return nil, ""
	}
	t, err := sl.frame.DecodeTile()
	if err != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.pstats.Rejected++
		c.dropSlotLocked(coord)
		return nil, ""
	}
	return t, sl.epoch
}

// dropSlotLocked removes the buffered slot for a coordinate, if any.
func (c *Client) dropSlotLocked(coord tile.Coord) {
	delete(c.slots, coord)
	for i, o := range c.order {
		if o == coord {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}
