// Package cmd holds the end-to-end smoke of the shipped binaries: build
// them, run each the way a user would as a real process, and read what it
// prints.
package cmd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
)

func TestBinaries(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ompss-bench", "ompss-serve"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	rows := []struct {
		name string
		bin  string
		args []string
		// want are patterns the combined output of a run that exits 0 must
		// match; drive, when set, takes over a binary that stays resident.
		want  []string
		drive func(*testing.T, *exec.Cmd)
	}{
		{
			// The gate on the sharded manager layer: the experiment itself
			// exits nonzero if centralized and sharded checksums diverge;
			// the rows prove the gate and both manager modes really ran.
			name: "weakscale", bin: "ompss-bench", args: []string{"-experiment", "weakscale", "-quick"},
			want: []string{
				`(?m)^wscale verify n=8 shards 1 vs 4 .* ok$`,
				`(?m)^wscale verify n=32 shards 1 vs 4 .* ok$`,
				`(?m)^wscale n=8 centralized +\S+ tasks/s$`,
				`(?m)^wscale n=8 sharded s=\d+ +\S+ tasks/s$`,
				`(?m)^wscale n=64 centralized +\S+ tasks/s$`,
				`(?m)^wscale n=64 sharded s=\d+ +\S+ tasks/s$`,
			},
		},
		{
			// Fails the run if a capped checksum diverges from uncapped or a
			// recorded peak exceeds its cap.
			name: "powercap", bin: "ompss-bench", args: []string{"-experiment", "powercap", "-quick"},
			want: []string{`(?m)^powercap verify .* checksum .* ok$`},
		},
		{
			name: "serve", bin: "ompss-serve", args: []string{"-addr", "127.0.0.1:0"},
			drive: coldWarmDrain,
		},
		{
			// Exits nonzero on any request error or a warm hit rate under
			// -min-hit-rate (0.99).
			name: "selftest", bin: "ompss-serve", args: []string{"-selftest", "-clients", "16", "-requests", "3", "-distinct", "3"},
			want: []string{`"errors": 0`, `selftest: OK: 16 clients, 48 warm requests`},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(dir, row.bin), row.args...)
			if row.drive != nil {
				row.drive(t, cmd)
				return
			}
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", row.bin, row.args, err, out)
			}
			for _, want := range row.want {
				if !regexp.MustCompile(want).Match(out) {
					t.Errorf("output does not match %q:\n%s", want, out)
				}
			}
		})
	}
}

// coldWarmDrain boots the resident server, submits one cheap experiment six
// times — a cold miss, then five hits with byte-identical bodies — and
// requires SIGTERM to end in a clean drain and exit 0.
func coldWarmDrain(t *testing.T, cmd *exec.Cmd) {
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op once Wait has returned
	log := bufio.NewReader(stderr)
	line, err := log.ReadString('\n')
	m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no listen address in first log line %q (%v)", line, err)
	}
	url := "http://" + m[1]

	var cold []byte
	for i, want := range []string{"miss", "hit", "hit", "hit", "hit", "hit"} {
		resp, err := http.Post(url+"/v1/experiments", "application/json",
			strings.NewReader(`{"experiment":"table1","quick":true}`))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, %v: %s", i, resp.StatusCode, err, body)
		}
		if got := resp.Header.Get("X-Ompss-Cache"); got != want {
			t.Fatalf("request %d: X-Ompss-Cache %q, want %q", i, got, want)
		}
		if i == 0 {
			cold = body
		} else if !bytes.Equal(body, cold) {
			t.Fatalf("warm body %d differs from the cold body", i)
		}
	}
	resp, err := http.Get(url + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Hits int `json:"hits"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Hits < 5 {
		t.Fatalf("cache/stats: hits %d, %v", st.Hits, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(log)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, rest)
	}
	if !bytes.Contains(rest, []byte("drained cleanly")) {
		t.Fatalf("no clean-drain message in the log:\n%s", rest)
	}
}
