"""Reference implementations that tests compare production code against."""
