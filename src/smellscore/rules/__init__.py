"""Rule catalog and checkers."""
