-- Sample application workload exercising a spread of anti-patterns:
-- schema DDL plus the queries an app issues against it. Used by the CLI
-- smoke tests (`sqlcheck examples/sample_workload.sql`) and the README.

CREATE TABLE users (
    id INTEGER PRIMARY KEY,
    name VARCHAR(80) NOT NULL,
    email VARCHAR(120),
    password VARCHAR(64),
    tag_list TEXT,
    balance FLOAT,
    created_at TIMESTAMP
);
CREATE TABLE orders (
    id INTEGER PRIMARY KEY,
    user_id INTEGER,
    status VARCHAR(16) CHECK (status IN ('open', 'paid', 'cancelled')),
    total FLOAT
);
CREATE INDEX idx_orders_user ON orders (user_id);
CREATE INDEX idx_orders_user_status ON orders (user_id, status);
SELECT id, name, email, password, tag_list, balance, created_at FROM users WHERE (email = 'ada@example.com');
SELECT u.name, o.total
    FROM users u JOIN orders o ON u.id = o.user_id
    WHERE o.status = 'open';
SELECT name FROM users WHERE tag_list LIKE '%,42,%';
SELECT name, password FROM users WHERE password = 'hunter2';
SELECT id, user_id, status, total FROM orders ORDER BY RAND();
INSERT INTO orders (id, user_id, status, total) VALUES (1, 7, 'open', 19.99);
