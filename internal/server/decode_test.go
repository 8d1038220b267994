package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/client"
)

// TestDecodeBodyMatchesDecoder pins decodeBody to the json.Decoder it
// replaced: on every body, the same decoded request and the same error.
func TestDecodeBodyMatchesDecoder(t *testing.T) {
	const limit = 64
	valid := `{"source":"x","class":"C"}`
	bodies := []string{
		valid,
		" \n" + valid + "\n\t ",
		valid + "garbage",
		valid + `{"source":"y"}`,
		valid + strings.Repeat(" ", 2*limit),
		valid + strings.Repeat("z", 2*limit),
		`{"source":"` + strings.Repeat("s", limit) + `"}`,
		`{"source":"x"`,
		"",
		"   ",
		`{"source":1}`,
		`{"source":1}trailing`,
		`{"source":"aé\n"}`,
		`[1,2]`,
		`nul`,
		`{"source":"x",}`,
	}
	for _, body := range bodies {
		var old client.CheckRequest
		oldErr := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(),
			httptest.NewRequest("POST", "/", strings.NewReader(body)).Body, limit)).Decode(&old)
		if oldErr != nil {
			oldErr = fmt.Errorf("decoding request: %w", oldErr)
		}
		var got client.CheckRequest
		err := decodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/", strings.NewReader(body)), limit, &got)
		if fmt.Sprint(err) != fmt.Sprint(oldErr) {
			t.Errorf("body %q: error %v, json.Decoder gave %v", body, err, oldErr)
		}
		if oldErr == nil && !reflect.DeepEqual(got, old) {
			t.Errorf("body %q: decoded %+v, json.Decoder gave %+v", body, got, old)
		}
	}
}
