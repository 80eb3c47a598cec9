package oagrid

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docsChecked are the documents whose names of tests, scripts, packages and
// CLI flags must stay true as the code moves under them.
var docsChecked = []string{"README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}

var (
	docTestRe   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	docScriptRe = regexp.MustCompile(`\bscripts/[\w.-]+\.sh\b`)
	docPathRe   = regexp.MustCompile(`(?:^|[^\w/.]|\./)((?:cmd|internal)/[\w/.*{},-]*)`)
	docSpanRe   = regexp.MustCompile("`(?:go run \\./cmd/)?(oarun|oasched|oaload)((?: [^`]*)?)`")
	docFlagRe   = regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	testFuncRe  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	fsFlagRe    = regexp.MustCompile(`\bfs\.\w+\((?:[^,()"]+,\s*)?"([\w-]+)"`)
)

// TestDocsNameRealThings fails when a checked document names something the
// tree does not have: a Test/Fuzz/Benchmark name that is no prefix of a test
// function (docs quote -run prefixes), a scripts/*.sh, cmd/ or internal/
// path that does not exist, or a -flag, inside a `oarun …`, `oasched …` or
// `oaload …` span, that the command's main.go does not define.
func TestDocsNameRealThings(t *testing.T) {
	var tests []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
				tests = append(tests, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{}
	for _, cmd := range []string{"oarun", "oasched", "oaload"} {
		src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		flags[cmd] = map[string]bool{"h": true, "help": true}
		for _, m := range fsFlagRe.FindAllStringSubmatch(string(src), -1) {
			flags[cmd][m[1]] = true
		}
	}

	for _, doc := range docsChecked {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			at := doc + ":" + strconv.Itoa(i+1)
			for _, name := range docTestRe.FindAllString(line, -1) {
				if !hasPrefixed(tests, name) {
					t.Errorf("%s: no test function starts with %s", at, name)
				}
			}
			for _, path := range docScriptRe.FindAllString(line, -1) {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: %s does not exist", at, path)
				}
			}
			for _, m := range docPathRe.FindAllStringSubmatch(line, -1) {
				if path := docPath(m[1]); !exists(path) {
					t.Errorf("%s: %s does not exist", at, path)
				}
			}
			for _, m := range docSpanRe.FindAllStringSubmatch(line, -1) {
				for _, f := range docFlagRe.FindAllStringSubmatch(m[2], -1) {
					if !flags[m[1]][f[1]] {
						t.Errorf("%s: %s has no -%s flag", at, m[1], f[1])
					}
				}
			}
		}
	}
}

// docPath is the file or directory a path token in a document names: the
// token itself, or the directory of a pattern (figure{7,8}.golden,
// frames/*.hex, internal/...), or the package of a qualified Go name
// (internal/grid.Client).
func docPath(token string) string {
	token = strings.TrimRight(token, ".,/")
	if i := strings.IndexAny(token, "{*"); i >= 0 {
		return token[:strings.LastIndex(token[:i], "/")]
	}
	base := token[strings.LastIndex(token, "/")+1:]
	if i := strings.Index(base, "."); i >= 0 && i+1 < len(base) && base[i+1] >= 'A' && base[i+1] <= 'Z' {
		return token[:len(token)-len(base)+i]
	}
	return token
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func hasPrefixed(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
