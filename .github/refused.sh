# Sourced by the workflow steps that check refusals.
#
# refused PREFIX COMMAND...
#   Runs COMMAND, which must exit 1 and print exactly one line to stderr,
#   starting with PREFIX; otherwise prints what it got and returns 1.
refused() {
  local prefix=$1 code=0 err
  shift
  err=$(mktemp)
  "$@" 2> "$err" || code=$?
  if [ "$code" -ne 1 ] || [ "$(wc -l < "$err")" -ne 1 ] \
    || [[ "$(cat "$err")" != "$prefix"* ]]; then
    echo "refused: expected exit 1 and one stderr line starting with '$prefix'," \
      "got exit $code and:" >&2
    cat "$err" >&2
    rm -f "$err"
    return 1
  fi
  rm -f "$err"
}
