package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/service"
)

// jobRec is what one client saw of one job.
type jobRec struct {
	idx     int
	req     service.JobRequest
	target  *replica // replica the job was submitted to
	proxied bool     // submitted to a replica that does not own the workload

	submitRTT time.Duration // POST round trip
	latency   time.Duration // submit to terminal result, as the client saw it
	end       time.Duration // when the client saw the result, from the phase's start
	events    int

	status service.JobStatus // after completion: timestamps and owner
	state  string
	err    string
	result *service.JobResult

	failed bool // not admitted, not done, or failed its check
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// runJob submits one job, follows its event stream to the end, fetches its
// result, and then reads its status for the server-side timestamps.
func runJob(c *http.Client, r *replica, req service.JobRequest) (*jobRec, error) {
	rec := &jobRec{req: req, target: r}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := c.Post(r.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.submitRTT = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		rec.failed = true
		rec.err = fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		return rec, nil
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, err
	}
	base := r.url + "/v1/jobs/" + st.ID
	if rec.events, err = countEvents(c, base+"/events"); err != nil {
		return nil, err
	}
	for {
		var out struct {
			State  string             `json:"state"`
			Error  string             `json:"error"`
			Result *service.JobResult `json:"result"`
		}
		code, err := getJSON(c, base+"/result", &out)
		if err != nil {
			return nil, err
		}
		if code == http.StatusOK {
			rec.state, rec.err, rec.result = out.State, out.Error, out.Result
			break
		}
		time.Sleep(time.Millisecond) // the stream ended before the state did
	}
	rec.latency = time.Since(t0)
	if _, err := getJSON(c, base, &rec.status); err != nil {
		return nil, err
	}
	rec.proxied = r.name != "" && rec.status.Node != r.name
	rec.failed = rec.state != service.StateDone
	return rec, nil
}

func countEvents(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	n := 0
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	buf := make([]byte, 64<<10)
	for {
		k, err := br.Read(buf)
		n += bytes.Count(buf[:k], []byte{'\n'})
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

func getJSON(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// closedLoop drives the fleet with `clients` clients that each wait for a
// job's result before submitting the next. Job i goes to replica
// i mod len(replicas). Clients stop taking new jobs once `d` has passed and
// at least minJobs have been taken, or once hardCap has passed.
func closedLoop(f *fleet, clients int, jobAt func(int) service.JobRequest, d, hardCap time.Duration, minJobs int) ([]*jobRec, time.Duration, error) {
	c := newClient()
	defer closeClient(c)
	var (
		next  atomic.Int64
		mu    sync.Mutex
		recs  []*jobRec
		first error
		wg    sync.WaitGroup
	)
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				el := time.Since(start)
				if el >= hardCap || (el >= d && int(next.Load()) >= minJobs) {
					return
				}
				i := int(next.Add(1) - 1)
				rec, err := runJob(c, f.reps[i%len(f.reps)], jobAt(i))
				mu.Lock()
				if err != nil {
					if first == nil {
						first = fmt.Errorf("job %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
				rec.idx, rec.end = i, time.Since(start)
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start), first
}

// scrape reads a replica's /metrics exposition into series → value.
func scrape(r *replica) (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, r.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Close = true // leave no idle connection behind
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// family sums every series of a metric family whose labels contain all of
// the given label fragments (e.g. `phase="pilot"`).
func family(m map[string]float64, name string, labels ...string) float64 {
	sum := 0.0
	for series, v := range m {
		fam, rest, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			sum += v
		}
	}
	return sum
}
